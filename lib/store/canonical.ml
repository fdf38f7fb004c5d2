module Q = Numeric.Rat
module N = Grid.Network

(* ---- stable hashing: FNV-1a, two independent 64-bit passes ---- *)

let fnv64 ~basis s =
  let h = ref basis in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let fingerprint s =
  Printf.sprintf "%016Lx%016Lx"
    (fnv64 ~basis:0xcbf29ce484222325L s)
    (fnv64 ~basis:0x84222325cbf29ce4L s)

(* murmur3's 64-bit finalizer: FNV-1a's last byte only sees one
   multiply, so its high bits barely move across short, similar strings
   ("s0#0".."s0#255") — and ring order is decided by high bits.  Two
   xor-shift-multiply rounds give every input bit ~50% influence on
   every output bit *)
let fmix64 h =
  let ( * ) = Int64.mul and ( ^ ) = Int64.logxor in
  let ( >>> ) = Int64.shift_right_logical in
  let h = (h ^ (h >>> 33)) * 0xff51afd7ed558ccdL in
  let h = (h ^ (h >>> 33)) * 0xc4ceb9fe1a85ec53L in
  h ^ (h >>> 33)

(* a key's position on the consistent-hash ring: the standard-basis FNV
   pass, avalanche-finalized, folded into a non-negative OCaml int.
   Every party that needs to agree on placement (ring, coordinator,
   shard sync filters) derives the point through this one function *)
let point s =
  Int64.to_int (fmix64 (fnv64 ~basis:0xcbf29ce484222325L s)) land max_int

(* ---- canonical serialisation ---- *)

let q = Q.to_string
let b01 b = if b then '1' else '0'

let no_meas = { N.taken = false; secured = false; accessible = false }

(* tolerate short measurement arrays (keys of unvalidated specs must not
   raise; linting owns the diagnosis) *)
let meas_get g k = if k < Array.length g.N.meas then g.N.meas.(k) else no_meas

let meas_str (m : N.meas) =
  Printf.sprintf "%c%c%c" (b01 m.N.taken) (b01 m.N.secured) (b01 m.N.accessible)

(* a line together with the two flow measurements indexed by it: the
   forward row i and backward row n_lines + i travel with the line when
   file rows are permuted, so they canonicalise as one record *)
let line_str g i (ln : N.line) =
  let l = N.n_lines g in
  Printf.sprintf "l %d %d %s %s %c%c%c%c%c f%s b%s" ln.N.from_bus ln.N.to_bus
    (q ln.N.admittance) (q ln.N.capacity) (b01 ln.N.known)
    (b01 ln.N.in_true_topology) (b01 ln.N.fixed) (b01 ln.N.status_secured)
    (b01 ln.N.status_alterable)
    (meas_str (meas_get g i))
    (meas_str (meas_get g (l + i)))

let gen_str (g : N.gen) =
  Printf.sprintf "g %d %s %s %s %s" g.N.gbus (q g.N.pmax) (q g.N.pmin)
    (q g.N.alpha) (q g.N.beta)

let load_str (l : N.load) =
  Printf.sprintf "d %d %s %s %s" l.N.lbus (q l.N.existing) (q l.N.lmax)
    (q l.N.lmin)

let sorted_lines strs =
  let a = Array.of_list strs in
  Array.sort String.compare a;
  a

let of_network g =
  let buf = Buffer.create 1024 in
  let add s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  add "topoguard-canonical v1";
  add (Printf.sprintf "grid %d" g.N.n_buses);
  (* lines (with their flow measurements) in content order *)
  Array.iter add
    (sorted_lines
       (List.of_seq (Seq.mapi (fun i ln -> line_str g i ln) (Array.to_seq g.N.lines))));
  (* injection measurements are keyed by bus number, which permutations of
     file rows cannot change: keep bus order *)
  for j = 0 to g.N.n_buses - 1 do
    add (Printf.sprintf "i %d %s" j (meas_str (meas_get g ((2 * N.n_lines g) + j))))
  done;
  Array.iter add (sorted_lines (List.map gen_str (Array.to_list g.N.gens)));
  Array.iter add (sorted_lines (List.map load_str (Array.to_list g.N.loads)));
  Buffer.contents buf

let of_spec (spec : Grid.Spec.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (of_network spec.Grid.Spec.grid);
  Buffer.add_string buf
    (Printf.sprintf "resource %d %d\n" spec.Grid.Spec.max_meas
       spec.Grid.Spec.max_buses);
  Buffer.add_string buf
    (Printf.sprintf "cost %s %s\n"
       (q spec.Grid.Spec.cost_reference)
       (q spec.Grid.Spec.min_increase_pct));
  Buffer.contents buf

let key ~params spec =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (of_spec spec);
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "param %s=%s\n" k v))
    (List.sort (fun (a, _) (b, _) -> String.compare a b) params);
  fingerprint (Buffer.contents buf)

(* the rows of a .grid file can be permuted without changing the network,
   so a per-line bitstring indexed by file row does not name a topology:
   the same bits over a row-permuted file denote different physical
   lines.  Each line record therefore carries its own mapped bit through
   the content sort — permuting rows permutes (line, bit) records
   together, keeping the key reorder-invariant while distinguishing every
   physical poisoned topology.  Only OPF-relevant content participates
   (buses, line electrical parameters + mapped bit, generators, per-bus
   shifted loads): the verdict is the poisoned optimum, which depends on
   nothing else, so scenarios differing only in attacker metadata share
   entries. *)
let verify_key ~mapped ~loads g =
  let buf = Buffer.create 1024 in
  let add s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  add "topoguard-verify v3";
  add (Printf.sprintf "grid %d" g.N.n_buses);
  Array.iter add
    (sorted_lines
       (List.of_seq
          (Seq.mapi
             (fun i (ln : N.line) ->
               let b = i < Array.length mapped && mapped.(i) in
               Printf.sprintf "l %d %d %s %s m%c" ln.N.from_bus ln.N.to_bus
                 (q ln.N.admittance) (q ln.N.capacity) (b01 b))
             (Array.to_seq g.N.lines))));
  Array.iter add (sorted_lines (List.map gen_str (Array.to_list g.N.gens)));
  (* shifted loads are indexed by bus, which row permutation cannot
     change: keep bus order *)
  Array.iteri (fun b v -> add (Printf.sprintf "d %d %s" b (q v))) loads;
  fingerprint (Buffer.contents buf)

(* fingerprint of the file's row ordering (the exact non-canonical row
   sequence): equal iff the sections hold the same records in the same
   order.  Combined with {!key} it pins a submission to its file layout,
   for results that embed row indices. *)
let ordering g =
  let buf = Buffer.create 1024 in
  let add s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  add "topoguard-ordering v1";
  Array.iteri (fun i ln -> add (line_str g i ln)) g.N.lines;
  Array.iter (fun x -> add (gen_str x)) g.N.gens;
  Array.iter (fun x -> add (load_str x)) g.N.loads;
  fingerprint (Buffer.contents buf)
