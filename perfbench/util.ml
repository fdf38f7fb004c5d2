(* Shared helpers of the benchmark: clocks, order statistics, seeded
   input streams, files, logging and the snapshot decoding the layer
   metrics are read from. *)

module J = Obs.Json

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* human-readable report lines go to stdout; only the last stdout line is
   the machine-readable result *)
let say fmt = Printf.ksprintf print_endline fmt
let note fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

exception Bench_error of string

let die fmt = Printf.ksprintf (fun s -> raise (Bench_error s)) fmt

(* ---- order statistics ---- *)

let sorted xs = List.sort Float.compare xs

(* Quantiles are Harrell-Davis estimates: a Beta-weighted average of all
   order statistics.  Unlike a single order statistic they move smoothly
   as samples change, which matters where latencies cluster (a polling
   client sees a job at one of a few fixed poll times, and the plain
   sample median jumps between clusters from run to run). *)

(* ln Gamma, Lanczos approximation (g = 7, 9 terms) *)
let log_gamma x =
  let c =
    [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028; 771.32342877765313;
       -176.61502916214059; 12.507343278686905; -0.13857109526572012;
       9.9843695780195716e-6; 1.5056327351493116e-7 |]
  in
  let x = x -. 1. in
  let t = x +. 7.5 in
  let s = ref c.(0) in
  for i = 1 to 8 do
    s := !s +. (c.(i) /. (x +. float_of_int i))
  done;
  (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !s

(* continued fraction of the regularized incomplete beta (modified Lentz) *)
let beta_cf a b x =
  let tiny = 1e-300 in
  let clamp d = if Float.abs d < tiny then tiny else d in
  let c = ref 1. and d = ref (1. /. clamp (1. -. ((a +. b) *. x /. (a +. 1.)))) in
  let h = ref !d in
  let rec go m =
    if m <= 100_000 then begin
      let m' = float_of_int m in
      let step num =
        d := 1. /. clamp (1. +. (num *. !d));
        c := clamp (1. +. (num /. !c));
        !d *. !c
      in
      let even = m' *. (b -. m') *. x /. ((a +. (2. *. m') -. 1.) *. (a +. (2. *. m'))) in
      h := !h *. step even;
      let odd = -.(a +. m') *. (a +. b +. m') *. x /. ((a +. (2. *. m')) *. (a +. (2. *. m') +. 1.)) in
      let del = step odd in
      h := !h *. del;
      if Float.abs (del -. 1.) > 1e-12 then go (m + 1)
    end
  in
  go 1;
  !h

(* regularized incomplete beta I_x(a, b) *)
let ibeta a b x =
  if x <= 0. then 0.
  else if x >= 1. then 1.
  else
    let front =
      exp
        (log_gamma (a +. b) -. log_gamma a -. log_gamma b +. (a *. log x)
        +. (b *. Float.log1p (-.x)))
    in
    if x < (a +. 1.) /. (a +. b +. 2.) then front *. beta_cf a b x /. a
    else 1. -. (front *. beta_cf b a (1. -. x) /. b)

let quantile xs q =
  match sorted xs with
  | [] -> nan
  | [ x ] -> x
  | s ->
    let n = float_of_int (List.length s) in
    let a = q *. (n +. 1.) and b = (1. -. q) *. (n +. 1.) in
    let _, acc, _ =
      List.fold_left
        (fun (i, acc, prev) x ->
          let cdf = ibeta a b (i /. n) in
          (i +. 1., acc +. ((cdf -. prev) *. x), cdf))
        (1., 0., 0.) s
    in
    acc

let median xs = quantile xs 0.5

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

type tail = { value : float; pct : float; n : int }

(* the highest percentile that has at least ten samples beyond it:
   100 (n - 10) / n, which moves smoothly with the sample count; with ten
   or fewer samples none qualifies and the maximum is reported *)
let tail xs =
  let n = List.length xs in
  if n <= 10 then { value = List.fold_left Float.max neg_infinity xs; pct = 100.; n }
  else
    let p = float_of_int (n - 10) /. float_of_int n in
    { value = quantile xs p; pct = 100. *. p; n }

let describe_tail t =
  if t.n <= 10 then
    Printf.sprintf "max of n=%d (too few samples for a percentile with 10 beyond it)" t.n
  else Printf.sprintf "p%.2f of n=%d, 10 samples beyond" t.pct t.n

(* ---- seeded streams (splitmix64) ---- *)

module Rng = struct
  type t = { mutable s : int64 }

  let make seed tag = { s = Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int (Hashtbl.hash tag))) }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(to_int (shift_right_logical (logxor z (shift_right_logical z 31)) 2))

  let int t bound = next t mod bound

  (* a positive generator seed: Grid.Gen's xorshift stream must not start
     from zero *)
  let grid_seed t = 1 + int t 1_000_000_000

  let shuffle t l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    Array.to_list a
end

(* ---- files ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ---- Obs snapshots, in-process or decoded from a stats response ---- *)

let empty_snapshot = { Obs.counters = []; timers = []; histograms = [] }

let hist_of_json j =
  let num = function
    | Some (J.Int i) -> float_of_int i
    | Some (J.Float f) -> f
    | _ -> 0.
  in
  let opt = function
    | Some (J.Int i) -> Some (float_of_int i)
    | Some (J.Float f) -> Some f
    | _ -> None
  in
  let buckets =
    match J.member "buckets" j with
    | Some (J.List bs) ->
      List.map
        (fun b ->
          let le =
            match J.member "le" b with
            | Some (J.String "+Inf") -> infinity
            | v -> num v
          in
          (le, int_of_float (num (J.member "count" b))))
        bs
    | _ -> []
  in
  {
    Obs.h_count = int_of_float (num (J.member "count" j));
    h_sum = num (J.member "sum" j);
    h_min = opt (J.member "min" j);
    h_max = opt (J.member "max" j);
    h_buckets = buckets;
  }

let snapshot_of_json j =
  let fields name f =
    match J.member name j with
    | Some (J.Obj kvs) -> List.filter_map f kvs
    | _ -> []
  in
  {
    Obs.counters =
      fields "counters" (function
        | k, J.Int v -> Some (k, v)
        | _ -> None);
    timers =
      fields "timers" (fun (k, v) ->
          match (J.member "seconds" v, J.member "calls" v) with
          | Some (J.Float s), Some (J.Int c) -> Some (k, { Obs.seconds = s; calls = c })
          | Some (J.Int s), Some (J.Int c) ->
            Some (k, { Obs.seconds = float_of_int s; calls = c })
          | _ -> None);
    histograms = fields "histograms" (fun (k, v) -> Some (k, hist_of_json v));
  }

let counter (s : Obs.snapshot) name =
  Option.value ~default:0 (List.assoc_opt name s.Obs.counters)

let hist (s : Obs.snapshot) name = List.assoc_opt name s.Obs.histograms

(* pool several processes' windows: counters add, histogram buckets add *)
let merge_snapshots (snaps : Obs.snapshot list) =
  let add_assoc combine l =
    List.fold_left
      (fun acc (k, v) ->
        match List.assoc_opt k acc with
        | None -> (k, v) :: acc
        | Some w -> (k, combine v w) :: List.remove_assoc k acc)
      [] l
  in
  let merge_hist (a : Obs.hist_entry) (b : Obs.hist_entry) =
    let opt f x y =
      match (x, y) with
      | Some x, Some y -> Some (f x y)
      | (Some _ as v), None | None, (Some _ as v) -> v
      | None, None -> None
    in
    {
      Obs.h_count = a.Obs.h_count + b.Obs.h_count;
      h_sum = a.h_sum +. b.h_sum;
      h_min = opt Float.min a.h_min b.h_min;
      h_max = opt Float.max a.h_max b.h_max;
      h_buckets =
        List.sort compare (add_assoc ( + ) (a.h_buckets @ b.h_buckets));
    }
  in
  {
    Obs.counters = add_assoc ( + ) (List.concat_map (fun s -> s.Obs.counters) snaps);
    timers =
      add_assoc
        (fun (a : Obs.timer_entry) b ->
          { Obs.seconds = a.seconds +. b.seconds; calls = a.calls + b.calls })
        (List.concat_map (fun s -> s.Obs.timers) snaps);
    histograms =
      add_assoc merge_hist (List.concat_map (fun s -> s.Obs.histograms) snaps);
  }

(* quantile of a histogram window, in the histogram's unit; 0 when empty *)
let hist_q (s : Obs.snapshot) name q =
  match hist s name with
  | Some h -> Option.value ~default:0. (Obs.quantile h q)
  | None -> 0.

let hist_mean (s : Obs.snapshot) name =
  match hist s name with
  | Some h when h.Obs.h_count > 0 -> h.Obs.h_sum /. float_of_int h.Obs.h_count
  | _ -> 0.

let hist_count (s : Obs.snapshot) name =
  match hist s name with Some h -> h.Obs.h_count | None -> 0

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
