(* Workload `sweep`: the in-process verification baseline.  One pass runs
   Impact.analyze_sweep (closed form, single line, one domain, no store)
   at increases 1, 2, 3 and 5 percent over the bundled 118-bus system and
   one seeded generated grid of similar cost.  No service is involved. *)

open Util
module I = Topoguard.Impact
module Q = Numeric.Rat

let increases = List.map Q.of_int [ 1; 2; 3; 5 ]

let config =
  {
    I.default_config with
    I.use_closed_form = true;
    max_topology_changes = Some 1;
    jobs = 1;
    store = None;
  }

(* the submission a client would send for the same analysis; only used
   to time the store-key layer on this workload's grids *)
let submit text =
  {
    Serve.Protocol.default_submit with
    Serve.Protocol.grid = text;
    base = "opf";
    single_line = true;
    backend = "factors";
  }

type input = { name : string; text : string }

(* The generated grid: 160 buses with exactly 12 candidates to verify
   (the closest of 64 draws otherwise) costs about what the 118-bus
   system costs, and the same for every seed. *)
let inputs ~root ~seed ~tiny =
  let rng = Rng.make seed "sweep" in
  let bundled f = read_file (Filename.concat root (Filename.concat "data" f)) in
  let generated ~buses ~solves = Work.grid rng ~buses ~tries:64 ~miss:(fun n -> abs (n - solves)) in
  if tiny then
    [
      { name = "bundled"; text = bundled "5.grid" };
      { name = "generated"; text = generated ~buses:12 ~solves:2 };
    ]
  else
    [
      { name = "bundled"; text = bundled "118.grid" };
      { name = "generated"; text = generated ~buses:160 ~solves:12 };
    ]

let prepare inputs =
  List.map
    (fun i ->
      match Grid.Spec.parse i.text with
      | Error e -> die "%s: parse: %s" i.name e
      | Ok spec -> (
        match Attack.Base_state.of_opf spec.Grid.Spec.grid with
        | Error e -> die "%s: base state: %s" i.name e
        | Ok base -> (i, spec, base)))
    inputs

type phase = {
  passes : float list;  (* seconds per pass *)
  calls : (string * float) list;  (* (grid, seconds) per analyze_sweep call *)
  answers : (string * (Q.t * I.outcome) list) list list;  (* per pass *)
  wall : float;
  window : Obs.snapshot;
}

let run_phase prepared ~seconds =
  let before = Obs.snapshot () in
  let t0 = now () in
  let passes = ref [] and calls = ref [] and answers = ref [] in
  let rec loop () =
    let dt, answer =
      timed (fun () ->
          Spans.root ~install:true "bench.sweep.pass" (fun ctx ->
              List.map
                (fun (i, spec, base) ->
                  let dt, r =
                    timed (fun () ->
                        Spans.call ~ctx ~args:[ ("grid", i.name) ] "bench.impact.analyze_sweep"
                          (fun () -> I.analyze_sweep ~config ~scenario:spec ~base ~increases ()))
                  in
                  calls := (i.name, dt) :: !calls;
                  (i.name, r))
                prepared))
    in
    passes := dt :: !passes;
    answers := answer :: !answers;
    if now () -. t0 < seconds then loop ()
  in
  loop ();
  let wall = now () -. t0 in
  {
    passes = List.rev !passes;
    calls = List.rev !calls;
    answers = List.rev !answers;
    wall;
    window = Obs.diff ~before ~after:(Obs.snapshot ());
  }

(* every pass must repeat the first, and the first must equal a separate
   Impact.analyze per target (sharing one store, so that the reference
   solves each candidate once) *)
let check prepared answers ~corrupt =
  let render o = J.to_string (Answer.of_outcome ~exact:true o) in
  let rendered pass = List.map (fun (g, rs) -> (g, List.map (fun (_, o) -> render o) rs)) pass in
  let first = match answers with p :: _ -> rendered p | [] -> [] in
  let first =
    if not corrupt then first
    else
      match first with
      | (g, a :: rest) :: more ->
        let bad =
          match J.of_string a with
          | Ok j -> J.to_string (Answer.corrupt j)
          | Error _ -> a ^ "!"
        in
        (g, bad :: rest) :: more
      | l -> l
  in
  let store =
    match Store.Cache.create () with Ok s -> s | Error e -> die "store: %s" e
  in
  let reference =
    List.map
      (fun ((i : input), (spec : Grid.Spec.t), base) ->
        ( i.name,
          List.map
            (fun pct ->
              let scenario = { spec with Grid.Spec.min_increase_pct = pct } in
              render (I.analyze ~config:{ config with I.store = Some store } ~scenario ~base ()))
            increases ))
      prepared
  in
  let problems = ref [] and failed = ref 0 in
  let compare_call ~what (g, got) =
    let want = List.assoc g reference in
    List.iteri
      (fun k (w, a) ->
        if w <> a then
          problems :=
            Printf.sprintf "%s: %s at +%s%%: got %s, want %s" what g
              (Q.to_string (List.nth increases k)) a w
            :: !problems)
      (List.combine want got);
    if want <> got then incr failed
  in
  List.iter (compare_call ~what:"pass 1") first;
  List.iteri
    (fun p pass ->
      if p > 0 then List.iter (compare_call ~what:(Printf.sprintf "pass %d" (p + 1))) (rendered pass))
    answers;
  (!failed, List.rev !problems)

(* the workload must stay off the service path *)
let work_done (w : Obs.snapshot) =
  let service =
    List.filter
      (fun n ->
        String.starts_with ~prefix:"serve." n || String.starts_with ~prefix:"cluster." n)
      (List.map fst w.Obs.counters @ List.map fst w.Obs.histograms)
  in
  (if service <> [] then
     [ "sweep touched the service layers: " ^ String.concat ", " service ]
   else [])
  @
  if counter w "attack.sweep.targets" = 0 then [ "no sweep target was analysed" ] else []

let e2e ~setup (ph : phase) =
  let ms = List.map (fun (_, s) -> 1000. *. s) ph.calls in
  let t = tail ms in
  say "sweep: %d pass(es), pass seconds [%s]" (List.length ph.passes)
    (String.concat "; " (List.map (Printf.sprintf "%.4f") ph.passes));
  say "lat_tail_ms: %s" (describe_tail t);
  [
    ("setup_s", setup);
    ("sweep_s", median ph.passes);
    ("jobs_per_s", float_of_int (List.length ph.calls) /. ph.wall);
    ("lat_p50_ms", median ms);
    ("lat_tail_ms", t.value);
  ]

let run ~root ~seed ~seconds ~tiny ~traced ~corrupt ~trace_out =
  let inputs = inputs ~root ~seed ~tiny in
  (* set-up: parse and base state of every grid, three times *)
  let setups = List.init 3 (fun _ -> timed (fun () -> prepare inputs)) in
  let setup = median (List.map fst setups) in
  let prepared = snd (List.hd setups) in
  let ph = run_phase prepared ~seconds in
  let e2e = e2e ~setup ph in
  let layer, absent, traced =
    if not traced then ([], [], None)
    else begin
      Obs.set_enabled true;
      Spans.enable ();
      let tr = run_phase prepared ~seconds in
      let probes =
        Layers.probes (List.map (fun i -> (i.text, submit i.text)) inputs)
      in
      Spans.disable ();
      Obs.set_enabled false;
      Layers.write_trace ~out:trace_out [];
      let per_grid g =
        1000. *. median (List.filter_map (fun (n, s) -> if n = g then Some s else None) tr.calls)
      in
      let layer =
        probes
        @ Layers.of_window tr.window
        @ [
            ("core.sweep_ms.bundled", per_grid "bundled");
            ("core.sweep_ms.generated", per_grid "generated");
            ("obs.trace_overhead", (median tr.passes /. median ph.passes) -. 1.);
          ]
      in
      let no_service = "in-process workload: no service, store or cluster on the path" in
      let absent =
        List.filter_map
          (fun (n, _) ->
            if List.mem_assoc n layer then None
            else if String.starts_with ~prefix:"generator." n then
              Some (n, "closed loop: no arrival schedule")
            else Some (n, no_service))
          Metrics.per_layer
      in
      (layer, absent, Some tr)
    end
  in
  let phases = ph :: Option.to_list traced in
  let failed, problems = check prepared (List.concat_map (fun p -> p.answers) phases) ~corrupt in
  {
    Metrics.e2e;
    layer;
    absent;
    attempted = List.fold_left (fun n p -> n + List.length p.calls) 0 phases;
    failed;
    problems = problems @ List.concat_map (fun p -> work_done p.window) phases;
  }
