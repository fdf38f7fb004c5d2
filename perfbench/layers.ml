(* Per-layer metrics, taken from outside the program: timed calls into
   each layer's public functions on the workload's own grid texts, and
   counter/histogram windows of the registry the program already
   exports. *)

open Util

(* mean ms per input of [f], median over [reps] passes over [inputs] *)
let probe ~reps inputs f =
  let n = float_of_int (max 1 (List.length inputs)) in
  median
    (List.init reps (fun _ ->
         let dt, () = timed (fun () -> List.iter f inputs) in
         1000. *. dt /. n))

(* The grid, store-key, attack-setup and audit layers, called directly on
   [(grid text, submission)] pairs.  Each call runs under a bench span
   when tracing is on. *)
let probes inputs =
  let spec text =
    match Grid.Spec.parse text with
    | Ok s -> s
    | Error e -> die "probe parse: %s" e
  in
  let parsed = List.map (fun (text, submit) -> (spec text, submit)) inputs in
  let with_base =
    List.map
      (fun (s, _) ->
        match Attack.Base_state.of_opf s.Grid.Spec.grid with
        | Ok b -> (s, b)
        | Error e -> die "probe base state: %s" e)
      parsed
  in
  let with_candidates =
    List.map
      (fun (s, b) ->
        let grid = s.Grid.Spec.grid in
        let dispatch =
          match Opf.Opf_auto.solve_factors (Grid.Topology.make grid) with
          | Opf.Dc_opf.Dispatch d -> d.Opf.Dc_opf.pg
          | _ -> die "probe: base OPF has no dispatch"
        in
        (grid, dispatch, Attack.Single_line.all_feasible ~scenario:s ~base:b))
      with_base
  in
  let texts = List.map fst inputs in
  [
    ( "grid.parse_ms",
      probe ~reps:5 texts (fun t ->
          ignore (Spans.call "grid.Spec.parse" (fun () -> Grid.Spec.parse t))) );
    ( "grid.topology_ms",
      probe ~reps:5 parsed (fun (s, _) ->
          ignore
            (Spans.call "grid.Topology.make" (fun () ->
                 Grid.Topology.make s.Grid.Spec.grid))) );
    ( "store.key_ms",
      probe ~reps:5 parsed (fun (s, submit) ->
          ignore
            (Spans.call "serve.Protocol.job_key" (fun () ->
                 Serve.Protocol.job_key s submit))) );
    ( "attack.base_state_ms",
      probe ~reps:3 parsed (fun (s, _) ->
          ignore
            (Spans.call "attack.Base_state.of_opf" (fun () ->
                 Attack.Base_state.of_opf s.Grid.Spec.grid))) );
    ( "attack.enumerate_ms",
      probe ~reps:3 with_base (fun (s, b) ->
          ignore
            (Spans.call "attack.Single_line.all_feasible" (fun () ->
                 Attack.Single_line.all_feasible ~scenario:s ~base:b))) );
    ( "audit.classify_ms",
      probe ~reps:3 with_candidates (fun (grid, dispatch, candidates) ->
          ignore
            (Spans.call "audit.classify" (fun () ->
                 Audit.classify ~grid ~base_dispatch:dispatch
                   ~islanding_sound:true ~interval_active:true ~candidates))) );
  ]

(* the solver-side layers, read off one counter window *)
let of_window (w : Obs.snapshot) =
  let c = counter w in
  let verified = c "attack.loop.iterations" in
  let pruned = c "audit.pruned" in
  let solve_ms =
    match List.assoc_opt "opf.float_opf.solve" w.Obs.timers with
    | Some t when t.Obs.calls > 0 -> 1000. *. t.Obs.seconds /. float_of_int t.Obs.calls
    | _ -> 0.
  in
  let ok = c "lp.certify.ok" and fallback = c "lp.certify.fallback" in
  [
    ("attack.verify_ms.p50", 1000. *. hist_q w "attack.verify.seconds" 0.5);
    ("attack.verify_ms.p99", 1000. *. hist_q w "attack.verify.seconds" 0.99);
    ("attack.verifications", float_of_int verified);
    ("attack.sweep.reused", float_of_int (c "attack.sweep.reused_verifications"));
    ("audit.prune_ratio", ratio pruned (pruned + verified));
    ("opf.solves", float_of_int (c "opf.float_opf.solves"));
    ("opf.solve_ms", solve_ms);
    ("opf.ptdf_rows", float_of_int (c "opf.ptdf.rows_computed"));
    ("lp.pivots_per_solve", hist_q w "lp.float.pivots_per_solve" 0.5);
    ("lp.certify_ms", 1000. *. hist_mean w "lp.certify.seconds");
    ("lp.certify.fallback_ratio", ratio fallback (ok + fallback));
    ("lp.presolve.rows_eliminated", float_of_int (c "lp.presolve.rows_eliminated"));
    ("linalg.lu.factorizations", float_of_int (c "linalg.lu.factorizations"));
    ("linalg.lu.fill_in", float_of_int (c "linalg.lu.fill_in"));
    ("linalg.bareiss.solves", float_of_int (c "linalg.bareiss.solves"));
  ]

(* the window metrics that are distributions: with no samples they have
   no value, and the report says so *)
let empty_sources (w : Obs.snapshot) =
  let samples src =
    hist_count w src
    + match List.assoc_opt src w.Obs.timers with Some t -> t.Obs.calls | None -> 0
  in
  List.filter_map
    (fun (metric, src) ->
      if samples src = 0 then Some (metric, "no " ^ src ^ " samples in the window")
      else None)
    [
      ("attack.verify_ms.p50", "attack.verify.seconds");
      ("attack.verify_ms.p99", "attack.verify.seconds");
      ("opf.solve_ms", "opf.float_opf.solve");
      ("lp.pivots_per_solve", "lp.float.pivots_per_solve");
      ("lp.certify_ms", "lp.certify.seconds");
    ]

(* OPF solves of any formulation in a window: the warm path must have none *)
let opf_solves (w : Obs.snapshot) =
  List.fold_left
    (fun acc name -> acc + counter w name)
    0
    [ "opf.float_opf.solves"; "opf.dc_opf.solves"; "opf.fast_opf.solves"; "opf.smt_opf.solves" ]

(* write the merged trace of this run: the bench's own spans plus any
   per-process files the fleet wrote *)
let write_trace ~out files =
  let own = Obs.Trace.export_json () in
  let others =
    List.filter_map
      (fun f ->
        if Sys.file_exists f then
          match J.of_string (read_file f) with
          | Ok j -> Some j
          | Error e ->
            note "skipping unreadable trace %s: %s" f e;
            None
        else None)
      files
  in
  match Obs.Trace.merge (own :: others) with
  | Ok merged ->
    mkdir_p (Filename.dirname out);
    Obs.write_json_file out merged;
    say "trace: %s (%d process file(s) merged)" out (1 + List.length others)
  | Error e -> die "trace merge: %s" e
