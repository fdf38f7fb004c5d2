(* Tests for the domain work pool: deterministic ordering, exception
   propagation, the sequential jobs<=1 fallback, first-success-by-order
   search, obs-counter atomicity under a parallel hammer, and the
   parallel-vs-sequential equivalence of the closed-form impact path. *)

module Q = Numeric.Rat
module I = Topoguard.Impact

(* burn a little CPU so tasks genuinely overlap and finish out of order *)
let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc * 7) + i
  done;
  Sys.opaque_identity !acc

let pool_tests =
  [
    Alcotest.test_case "map keeps input order under 4 domains" `Quick (fun () ->
        Pool.with_pool ~jobs:4 (fun pool ->
            let xs = List.init 64 Fun.id in
            let ys =
              Pool.map pool
                ~f:(fun x ->
                  (* earlier items work longer, so they finish last *)
                  ignore (spin ((64 - x) * 5_000));
                  x * 2)
                xs
            in
            Alcotest.(check (list int)) "doubled in order"
              (List.map (fun x -> x * 2) xs)
              ys));
    Alcotest.test_case "mapi passes indices through" `Quick (fun () ->
        Pool.with_pool ~jobs:3 (fun pool ->
            let ys = Pool.mapi pool ~f:(fun i x -> i + x) [ 10; 20; 30 ] in
            Alcotest.(check (list int)) "i + x" [ 10; 21; 32 ] ys));
    Alcotest.test_case "iter visits every element" `Quick (fun () ->
        let hits = Atomic.make 0 in
        Pool.with_pool ~jobs:4 (fun pool ->
            Pool.iter pool
              ~f:(fun _ -> Atomic.incr hits)
              (List.init 100 Fun.id));
        Alcotest.(check int) "100 visits" 100 (Atomic.get hits));
    Alcotest.test_case "exceptions propagate from workers" `Quick (fun () ->
        Pool.with_pool ~jobs:4 (fun pool ->
            match
              Pool.map pool
                ~f:(fun x -> if x = 5 then failwith "task five" else x)
                (List.init 10 Fun.id)
            with
            | _ -> Alcotest.fail "expected the task's exception"
            | exception Failure msg ->
              Alcotest.(check string) "original exception" "task five" msg));
    Alcotest.test_case "async future await returns the value" `Quick (fun () ->
        Pool.with_pool ~jobs:2 (fun pool ->
            let fut = Pool.async pool (fun () -> 41 + 1) in
            Alcotest.(check int) "42" 42 (Pool.Future.await fut)));
    Alcotest.test_case "detached future + await_timeout" `Quick (fun () ->
        let fut = Pool.detached (fun () -> ignore (spin 1000); "done") in
        match
          Pool.Future.await_timeout ~clock:Unix.gettimeofday
            ~sleep:(fun () -> Unix.sleepf 0.001)
            ~seconds:10.0 fut
        with
        | Some s -> Alcotest.(check string) "completes" "done" s
        | None -> Alcotest.fail "spurious timeout");
    Alcotest.test_case "await_timeout expires on a stuck task" `Quick
      (fun () ->
        let release = Atomic.make false in
        let fut =
          Pool.detached (fun () ->
              while not (Atomic.get release) do
                Domain.cpu_relax ()
              done)
        in
        let r =
          Pool.Future.await_timeout ~clock:Unix.gettimeofday
            ~sleep:(fun () -> Unix.sleepf 0.001)
            ~seconds:0.05 fut
        in
        Atomic.set release true;
        Alcotest.(check bool) "timed out" true (r = None));
  ]

let fallback_tests =
  [
    Alcotest.test_case "jobs=1 runs on the calling domain" `Quick (fun () ->
        let self = Domain.self () in
        Pool.with_pool ~jobs:1 (fun pool ->
            Alcotest.(check int) "jobs clamps to 1" 1 (Pool.jobs pool);
            Pool.iter pool
              ~f:(fun _ ->
                if Domain.self () <> self then
                  Alcotest.fail "task ran on a spawned domain")
              [ 1; 2; 3 ]));
    Alcotest.test_case "jobs=1 find stops at the first success" `Quick
      (fun () ->
        let calls = ref 0 in
        Pool.with_pool ~jobs:1 (fun pool ->
            let r =
              Pool.find_mapi_first pool
                ~f:(fun i x ->
                  incr calls;
                  if x >= 10 then Some (i, x) else None)
                [ 1; 5; 10; 20; 30 ]
            in
            Alcotest.(check (option (pair int int))) "index 2 wins"
              (Some (2, 10)) r;
            (* sequential semantics: nothing after the success is examined *)
            Alcotest.(check int) "three calls" 3 !calls));
  ]

let find_first_tests =
  [
    Alcotest.test_case "lowest-index success wins under parallelism" `Quick
      (fun () ->
        (* index 9 succeeds almost instantly, index 3 succeeds after real
           work: the slower, earlier success must still win *)
        Pool.with_pool ~jobs:4 (fun pool ->
            let r =
              Pool.find_mapi_first pool
                ~f:(fun i _ ->
                  if i = 3 then begin
                    ignore (spin 2_000_000);
                    Some "slow-early"
                  end
                  else if i = 9 then Some "fast-late"
                  else None)
                (List.init 16 Fun.id)
            in
            Alcotest.(check (option string)) "early index wins"
              (Some "slow-early") r));
    Alcotest.test_case "no success yields None" `Quick (fun () ->
        Pool.with_pool ~jobs:4 (fun pool ->
            let r =
              Pool.find_mapi_first pool ~f:(fun _ _ -> None)
                (List.init 32 Fun.id)
            in
            Alcotest.(check bool) "none" true (r = None)));
    Alcotest.test_case "tasks above a success are cancelled" `Quick (fun () ->
        (* index 0 succeeds immediately; with 2 workers the tail of a long
           list must be skipped via the shared best-index flag *)
        let ran = Atomic.make 0 in
        Pool.with_pool ~jobs:2 (fun pool ->
            let r =
              Pool.find_mapi_first pool
                ~f:(fun i _ ->
                  Atomic.incr ran;
                  if i = 0 then Some i else (ignore (spin 20_000); None))
                (List.init 512 Fun.id)
            in
            Alcotest.(check (option int)) "index 0" (Some 0) r;
            Alcotest.(check bool)
              (Printf.sprintf "ran %d of 512, expected far fewer"
                 (Atomic.get ran))
              true
              (Atomic.get ran < 512)));
  ]

(* --- obs counters stay exact when hammered from several domains --- *)

let obs_hammer_tests =
  [
    Alcotest.test_case "counter exact under 4-domain hammer" `Quick (fun () ->
        let c = Obs.Counter.make "test.pool.hammer_counter" in
        let v0 = Obs.Counter.get c in
        Pool.with_pool ~jobs:4 (fun pool ->
            Pool.iter pool
              ~f:(fun _ ->
                for _ = 1 to 25_000 do
                  Obs.Counter.incr c
                done)
              [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
        Alcotest.(check int) "8 x 25k increments, none lost"
          (v0 + 200_000) (Obs.Counter.get c));
    Alcotest.test_case "counter add exact under parallel add" `Quick (fun () ->
        let c = Obs.Counter.make "test.pool.hammer_add" in
        let v0 = Obs.Counter.get c in
        Pool.with_pool ~jobs:4 (fun pool ->
            Pool.iter pool
              ~f:(fun n -> Obs.Counter.add c n)
              (List.init 1000 (fun i -> i + 1)));
        Alcotest.(check int) "sum 1..1000" (v0 + 500_500) (Obs.Counter.get c));
    Alcotest.test_case "timer calls exact under parallel add_seconds" `Quick
      (fun () ->
        let t = Obs.Timer.make "test.pool.hammer_timer" in
        let n0 = Obs.Timer.count t in
        let s0 = Obs.Timer.total_seconds t in
        let was = Obs.enabled () in
        Obs.set_enabled true;
        Pool.with_pool ~jobs:4 (fun pool ->
            Pool.iter pool
              ~f:(fun _ -> Obs.Timer.add_seconds t 0.001)
              (List.init 10_000 Fun.id));
        Obs.set_enabled was;
        Alcotest.(check int) "10k spans recorded" (n0 + 10_000)
          (Obs.Timer.count t);
        Alcotest.(check (float 1e-6)) "10 accumulated seconds" (s0 +. 10.0)
          (Obs.Timer.total_seconds t));
  ]

(* --- closed-form impact: jobs=4 must equal jobs=1 on the 14-bus grid --- *)

let impact_equivalence_tests =
  let scenario_for pct =
    let spec = Grid.Test_systems.ieee 14 in
    { spec with Grid.Spec.min_increase_pct = pct }
  in
  let config jobs =
    {
      I.default_config with
      I.mode = Attack.Encoder.Topology_only;
      max_topology_changes = Some 1;
      use_closed_form = true;
      jobs;
    }
  in
  let run scenario jobs =
    match Attack.Base_state.of_opf scenario.Grid.Spec.grid with
    | Error e -> Alcotest.failf "base state: %s" e
    | Ok base -> I.analyze ~config:(config jobs) ~scenario ~base ()
  in
  let check_equal pct =
    let scenario = scenario_for pct in
    match (run scenario 1, run scenario 4) with
    | I.Attack_found a, I.Attack_found b ->
      Alcotest.(check bool) "same excluded lines" true
        (a.I.vector.Attack.Vector.excluded = b.I.vector.Attack.Vector.excluded);
      Alcotest.(check bool) "same included lines" true
        (a.I.vector.Attack.Vector.included = b.I.vector.Attack.Vector.included);
      Alcotest.(check bool) "same poisoned cost" true
        (match (a.I.poisoned_cost, b.I.poisoned_cost) with
        | Some ca, Some cb -> Q.equal ca cb
        | None, None -> true
        | _ -> false);
      Alcotest.(check bool) "same threshold" true
        (Q.equal a.I.threshold b.I.threshold)
    | I.No_attack _, I.No_attack _ -> ()
    | _ -> Alcotest.fail "jobs=4 outcome differs from jobs=1"
  in
  [
    Alcotest.test_case "14-bus: low target, jobs=4 == jobs=1" `Quick (fun () ->
        check_equal (Q.of_ints 1 2));
    Alcotest.test_case "14-bus: unattainable target, jobs=4 == jobs=1" `Quick
      (fun () -> check_equal (Q.of_int 100000));
  ]

(* --- contingency screening: parallel result identical to sequential --- *)

let contingency_tests =
  [
    Alcotest.test_case "14-bus screen: jobs=4 == jobs=1" `Quick (fun () ->
        let grid = (Grid.Test_systems.ieee 14).Grid.Spec.grid in
        let topo = Grid.Topology.make grid in
        match Opf.Float_opf.solve topo with
        | Opf.Dc_opf.Infeasible | Opf.Dc_opf.Unbounded ->
          Alcotest.fail "base OPF failed"
        | Opf.Dc_opf.Dispatch d ->
          let base_flows = Array.map Q.to_float d.Opf.Dc_opf.flows in
          (* stress the screen with a tight emergency factor so violations
             actually appear and their order matters *)
          List.iter
            (fun emergency_factor ->
              let seq =
                Opf.Contingency.screen ~emergency_factor topo ~base_flows
              in
              let par =
                Opf.Contingency.screen ~emergency_factor ~jobs:4 topo
                  ~base_flows
              in
              Alcotest.(check bool)
                (Printf.sprintf "identical violation lists at %.2f"
                   emergency_factor)
                true (seq = par))
            [ 1.2; 1.0; 0.8 ]);
  ]

let () =
  Alcotest.run "pool"
    [
      ("pool", pool_tests);
      ("fallback", fallback_tests);
      ("find-first", find_first_tests);
      ("obs-hammer", obs_hammer_tests);
      ("impact-equivalence", impact_equivalence_tests);
      ("contingency", contingency_tests);
    ]
