(* bench-smoke: a tiny instrumented run (the paper's 5-bus case study)
   that exercises the whole SMT -> OPF attack pipeline with the
   observability layer armed, writes the snapshot as JSON, and validates
   that the emitted file parses and carries nonzero solver statistics.

   CI entry point: dune build @bench-smoke *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bench-smoke: FAIL: " ^ s);
      exit 1)
    fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let counter json name =
  match Obs.Json.member "counters" json with
  | Some counters -> (
    match Obs.Json.member name counters with
    | Some (Obs.Json.Int n) -> n
    | _ -> fail "counter %s missing from the JSON snapshot" name)
  | None -> fail "no \"counters\" object in the JSON snapshot"

let () =
  Obs.Clock.set Unix.gettimeofday;
  Obs.set_enabled true;
  Obs.Trace.set_enabled true;
  let scenario = Grid.Test_systems.case_study_1 () in
  let base =
    match
      Attack.Base_state.of_dispatch scenario.Grid.Spec.grid
        ~gen:(Grid.Test_systems.case_study_base_dispatch ())
    with
    | Ok b -> b
    | Error e -> fail "base state: %s" e
  in
  (* default config: the certified shift-factor OPF *)
  let found =
    match Topoguard.Impact.analyze ~scenario ~base () with
    | Topoguard.Impact.Attack_found s -> s
    | Topoguard.Impact.No_attack _ ->
      fail "expected an attack on the 5-bus case study"
    | Topoguard.Impact.Base_infeasible e -> fail "base infeasible: %s" e
  in
  (* oracle: the exact angle-formulation LP on the winning vector must
     also put the poisoned optimum at or above the threshold, within the
     formulation tolerance of the certified cost; this solve arms the
     exact-simplex counters asserted below *)
  let vec = found.Topoguard.Impact.vector in
  let topo =
    Grid.Topology.make ~mapped:vec.Attack.Vector.mapped scenario.Grid.Spec.grid
  in
  (match Opf.Dc_opf.solve ~loads:vec.Attack.Vector.est_loads topo with
  | Opf.Dc_opf.Dispatch d ->
    let angle = d.Opf.Dc_opf.cost in
    let certified =
      match found.Topoguard.Impact.poisoned_cost with
      | Some c -> c
      | None -> fail "attack found without a poisoned cost"
    in
    let a = Numeric.Rat.to_float angle
    and c = Numeric.Rat.to_float certified in
    if Numeric.Rat.( < ) angle found.Topoguard.Impact.threshold then
      fail "angle LP puts the winning vector below the threshold (%g)" a;
    if Float.abs (a -. c) > 1e-5 *. Float.abs a then
      fail "angle LP cost %g vs certified %g: beyond the formulation tolerance"
        a c
  | Opf.Dc_opf.Infeasible | Opf.Dc_opf.Unbounded ->
    fail "angle LP does not converge on the winning vector");
  let file = Filename.temp_file "bench_smoke" ".json" in
  Obs.write_json_file file (Obs.json_of_snapshot (Obs.snapshot ()));
  let json =
    match Obs.Json.of_string (read_file file) with
    | Ok j -> j
    | Error e -> fail "emitted JSON does not parse: %s" e
  in
  Sys.remove file;
  List.iter
    (fun name ->
      let n = counter json name in
      if n <= 0 then fail "counter %s is %d, expected > 0" name n;
      Printf.printf "bench-smoke: %-28s %d\n" name n)
    [
      "smt.sat.decisions";
      "smt.sat.propagations";
      "smt.simplex.pivots";
      "attack.loop.iterations";
      (* the run verifies candidates on the certified shift-factor OPF,
         the oracle check solves the exact angle LP *)
      "opf.float_opf.solves";
      "lp.certify.ok";
      "opf.dc_opf.solves";
      (* LP presolve statistics: the 5-bus OPF solves must show presolve
         reductions, and the oracle exact-simplex pivots *)
      "lp.exact.pivots";
      "lp.presolve.rows_eliminated";
      "lp.presolve.bounds_tightened";
      "lp.presolve.vars_fixed";
    ];
  (* every certificate on the 5-bus system must validate *)
  (match counter json "lp.certify.fail" with
  | 0 -> ()
  | n -> fail "lp.certify.fail is %d, expected 0" n);
  (match Obs.Json.member "timers" json with
  | Some timers -> (
    match Obs.Json.member "attack.loop.analyze" timers with
    | Some entry -> (
      match Obs.Json.member "calls" entry with
      | Some (Obs.Json.Int calls) when calls >= 1 -> ()
      | _ -> fail "attack.loop.analyze timer has no calls")
    | None -> fail "attack.loop.analyze timer missing")
  | None -> fail "no \"timers\" object in the JSON snapshot");
  (* the instrumented solves must have filled at least one histogram
     (pivots per solve, decisions per check, verification latency) *)
  (match Obs.Json.member "histograms" json with
  | Some (Obs.Json.Obj entries) ->
    let count e =
      match Obs.Json.member "count" e with
      | Some (Obs.Json.Int n) -> n
      | _ -> 0
    in
    let nonempty = List.filter (fun (_, e) -> count e > 0) entries in
    if nonempty = [] then fail "no nonempty histogram in the snapshot";
    if not (List.mem_assoc "lp.certify.seconds" nonempty) then
      fail "lp.certify.seconds histogram is empty or missing";
    List.iter
      (fun (name, e) ->
        Printf.printf "bench-smoke: histogram %-28s n=%d\n" name (count e))
      nonempty
  | _ -> fail "no \"histograms\" object in the JSON snapshot");
  (* the trace of the run exports as well-formed Chrome trace_event JSON:
     it parses, is nonempty, and every domain's B/E events balance *)
  Obs.Trace.set_enabled false;
  let tfile = Filename.temp_file "bench_smoke" ".trace.json" in
  Obs.Trace.write_file tfile;
  let tjson =
    match Obs.Json.of_string (read_file tfile) with
    | Ok j -> j
    | Error e -> fail "emitted trace does not parse: %s" e
  in
  Sys.remove tfile;
  (match Obs.Json.member "traceEvents" tjson with
  | Some (Obs.Json.List events) ->
    if events = [] then fail "trace has no events";
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun ev ->
        let tid =
          match Obs.Json.member "tid" ev with
          | Some (Obs.Json.Int t) -> t
          | _ -> fail "trace event without tid"
        in
        let b, e = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl tid) in
        match Obs.Json.member "ph" ev with
        | Some (Obs.Json.String "B") -> Hashtbl.replace tbl tid (b + 1, e)
        | Some (Obs.Json.String "E") -> Hashtbl.replace tbl tid (b, e + 1)
        | Some (Obs.Json.String ("X" | "i")) -> ()
        | _ -> fail "trace event with unexpected phase: %s" (Obs.Json.to_string ev))
      events;
    Hashtbl.iter
      (fun tid (b, e) ->
        if b <> e then fail "tid %d: %d B event(s) vs %d E event(s)" tid b e)
      tbl;
    Printf.printf "bench-smoke: trace %d event(s), B/E balanced per domain\n"
      (List.length events)
  | _ -> fail "trace missing \"traceEvents\"");
  print_endline "bench-smoke: OK"
