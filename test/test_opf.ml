(* Tests for the OPF stack: the exact angle LP and the SMT bounded-cost
   model (the oracles), PTDF/LODF/LCDF distribution factors, and the
   production certified shift-factor OPF checked against both. *)

module Q = Numeric.Rat
module N = Grid.Network
module T = Grid.Topology
module PF = Grid.Powerflow
module TS = Grid.Test_systems

let qc = Alcotest.testable Q.pp Q.equal
let close ?(eps = 1e-6) a b = Float.abs (a -. b) < eps

let prop ?(count = 50) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let five = TS.five_bus ()

let dispatch_exn = function
  | Opf.Dc_opf.Dispatch d -> d
  | Opf.Dc_opf.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Opf.Dc_opf.Unbounded -> Alcotest.fail "unexpected unbounded"

let relax_caps grid =
  {
    grid with
    N.lines =
      Array.map (fun ln -> { ln with N.capacity = Q.of_int 10 }) grid.N.lines;
  }

let dc_opf_tests =
  [
    Alcotest.test_case "uncongested optimum is the merit order" `Quick
      (fun () ->
        (* relaxed caps: fill cheapest generators first ->
           G3 = 0.5, G1 = 0.23, G2 = 0.1; cost = 170+414+220+600 = 1404 *)
        let d = dispatch_exn (Opf.Dc_opf.base_case (relax_caps five)) in
        Alcotest.check qc "cost" (Q.of_int 1404) d.Opf.Dc_opf.cost;
        Alcotest.check qc "g1" (Q.of_ints 23 100) d.Opf.Dc_opf.pg.(0);
        Alcotest.check qc "g2" (Q.of_ints 10 100) d.Opf.Dc_opf.pg.(1);
        Alcotest.check qc "g3" (Q.of_ints 50 100) d.Opf.Dc_opf.pg.(2));
    Alcotest.test_case "congestion raises the cost above merit order" `Quick
      (fun () ->
        let d = dispatch_exn (Opf.Dc_opf.base_case five) in
        Alcotest.(check bool) "congested > merit" true
          Q.(d.Opf.Dc_opf.cost > of_int 1404));
    Alcotest.test_case "dispatch balances and respects limits" `Quick
      (fun () ->
        let d = dispatch_exn (Opf.Dc_opf.base_case five) in
        let total_gen = Array.fold_left Q.add Q.zero d.Opf.Dc_opf.pg in
        Alcotest.check qc "balance" (N.total_load five) total_gen;
        Array.iteri
          (fun k p ->
            let g = five.N.gens.(k) in
            Alcotest.(check bool)
              (Printf.sprintf "gen %d in range" k)
              true
              Q.(p >= g.N.pmin && p <= g.N.pmax))
          d.Opf.Dc_opf.pg;
        Array.iteri
          (fun i f ->
            Alcotest.(check bool)
              (Printf.sprintf "line %d within cap" (i + 1))
              true
              Q.(abs f <= five.N.lines.(i).N.capacity))
          d.Opf.Dc_opf.flows);
    Alcotest.test_case "flows follow from the angles" `Quick (fun () ->
        let d = dispatch_exn (Opf.Dc_opf.base_case five) in
        let topo = T.make five in
        let expected = PF.flow_of_angles topo d.Opf.Dc_opf.theta in
        Array.iteri
          (fun i f -> Alcotest.check qc (Printf.sprintf "line %d" i) expected.(i) f)
          d.Opf.Dc_opf.flows);
    Alcotest.test_case "infeasible when load exceeds generation" `Quick
      (fun () ->
        let loads = [| Q.zero; Q.one; Q.one; Q.one; Q.one |] in
        Alcotest.(check bool) "infeasible" true
          (Opf.Dc_opf.solve ~loads (T.make five) = Opf.Dc_opf.Infeasible));
    Alcotest.test_case "islanding a loaded bus is infeasible" `Quick
      (fun () ->
        (* cutting lines 3 and 6 isolates bus 3 (load 0.24, gen <= 0.5:
           balance within the island forces gen = load, but line caps are
           irrelevant; islanding with nonzero mismatch must not dispatch *)
        let mapped = N.true_topology five in
        mapped.(2) <- false;
        mapped.(5) <- false;
        match Opf.Dc_opf.solve (T.make ~mapped five) with
        | Opf.Dc_opf.Dispatch d ->
          (* if it converges, the island must self-balance: G3 = 0.24 *)
          Alcotest.check qc "island balance" (Q.of_ints 24 100)
            d.Opf.Dc_opf.pg.(2)
        | Opf.Dc_opf.Infeasible -> ()
        | Opf.Dc_opf.Unbounded -> Alcotest.fail "unbounded");
  ]

let smt_opf_tests =
  [
    Alcotest.test_case "sat exactly at the LP optimum" `Quick (fun () ->
        let d = dispatch_exn (Opf.Dc_opf.base_case five) in
        let topo = T.make five in
        Alcotest.(check bool) "sat at opt" true
          (Opf.Smt_opf.feasible topo ~budget:d.Opf.Dc_opf.cost = `Sat);
        Alcotest.(check bool) "unsat below opt" true
          (Opf.Smt_opf.feasible topo
             ~budget:(Q.sub d.Opf.Dc_opf.cost (Q.of_ints 1 100))
          = `Unsat));
    Alcotest.test_case "poisoned loads change the boundary" `Quick (fun () ->
        let topo = T.make five in
        let loads = [| Q.zero; Q.of_ints 21 100; Q.of_ints 30 100;
                       Q.of_ints 12 100; Q.of_ints 20 100 |] in
        let d = dispatch_exn (Opf.Dc_opf.solve ~loads topo) in
        Alcotest.(check bool) "sat at its own opt" true
          (Opf.Smt_opf.feasible ~loads topo ~budget:d.Opf.Dc_opf.cost = `Sat));
    prop "LP optimum is the SMT boundary for random load shifts"
      QCheck2.Gen.(pair (int_range (-5) 5) (int_range (-5) 5))
      (fun (d2, d3) ->
        (* shift load between buses 2 and 3 in 0.01 steps, keeping total *)
        let shift = Q.of_ints (d2 - d3) 200 in
        let loads =
          [|
            Q.zero;
            Q.add (Q.of_ints 21 100) shift;
            Q.sub (Q.of_ints 24 100) shift;
            Q.of_ints 18 100;
            Q.of_ints 20 100;
          |]
        in
        let topo = T.make five in
        match Opf.Dc_opf.solve ~loads topo with
        | Opf.Dc_opf.Dispatch d ->
          Opf.Smt_opf.feasible ~loads topo ~budget:d.Opf.Dc_opf.cost = `Sat
          && Opf.Smt_opf.feasible ~loads topo
               ~budget:(Q.sub d.Opf.Dc_opf.cost Q.one)
             = `Unsat
        | Opf.Dc_opf.Infeasible ->
          (* then no budget can be satisfied either *)
          Opf.Smt_opf.feasible ~loads topo ~budget:(Q.of_int 100000) = `Unsat
        | Opf.Dc_opf.Unbounded -> false);
  ]

(* random balanced injection vector over the 5-bus system *)
let gen_injections =
  QCheck2.Gen.(
    let* parts = array_size (return 4) (float_range (-0.3) 0.3) in
    let total = Array.fold_left ( +. ) 0.0 parts in
    return [| -.total; parts.(0); parts.(1); parts.(2); parts.(3) |])

let factor_tests =
  [
    prop "PTDF flows equal power-flow flows" gen_injections (fun inj ->
        let topo = T.make five in
        let f = Opf.Factors.make topo in
        let via_factors = Opf.Factors.flows_from_injections f inj in
        let gen = Array.map (fun x -> Float.max x 0.0) inj in
        let load = Array.map (fun x -> Float.max (-.x) 0.0) inj in
        match PF.solve_float topo ~gen ~load with
        | Error _ -> false
        | Ok (_, flows) ->
          Array.for_all2 (fun a b -> close a b) via_factors flows);
    prop "LODF matches re-solving without the line" gen_injections
      (fun inj ->
        let topo = T.make five in
        let f = Opf.Factors.make topo in
        let gen = Array.map (fun x -> Float.max x 0.0) inj in
        let load = Array.map (fun x -> Float.max (-.x) 0.0) inj in
        match PF.solve_float topo ~gen ~load with
        | Error _ -> false
        | Ok (_, base_flows) ->
          (* outage of line 6 (index 5) keeps the system connected *)
          let predicted =
            Opf.Factors.flows_after_outage f ~base_flows ~outage:5
          in
          let mapped = N.true_topology five in
          mapped.(5) <- false;
          (match PF.solve_float (T.make ~mapped five) ~gen ~load with
          | Error _ -> false
          | Ok (_, actual) ->
            Array.for_all2 (fun a b -> close ~eps:1e-6 a b) predicted actual));
    prop "LCDF closure flow matches adding the line" gen_injections
      (fun inj ->
        (* start from the topology without line 6, close it *)
        let mapped = N.true_topology five in
        mapped.(5) <- false;
        let topo_open = T.make ~mapped five in
        let f = Opf.Factors.make topo_open in
        let gen = Array.map (fun x -> Float.max x 0.0) inj in
        let load = Array.map (fun x -> Float.max (-.x) 0.0) inj in
        match PF.solve_float topo_open ~gen ~load with
        | Error _ -> false
        | Ok (theta, base_flows) ->
          let predicted =
            Opf.Factors.flows_after_closure f ~theta ~base_flows ~line:5
          in
          (match PF.solve_float (T.make five) ~gen ~load with
          | Error _ -> false
          | Ok (_, actual) ->
            Array.for_all2 (fun a b -> close ~eps:1e-6 a b) predicted actual));
    Alcotest.test_case "PTDF rows match a dense-inverse reference" `Quick
      (fun () ->
        (* the on-demand rows come from one transposed sparse solve per
           line; check them against the dense road not taken — the
           explicit Lu.inverse of the reduced susceptance matrix *)
        List.iter
          (fun size ->
            let grid = (TS.ieee size).Grid.Spec.grid in
            let topo = T.make grid in
            let f = Opf.Factors.make topo in
            let x = Linalg.Lu.inverse (T.b_reduced topo) in
            let slack = topo.T.slack in
            let reduced j =
              if j = slack then None else Some (if j < slack then j else j - 1)
            in
            for line = 0 to N.n_lines grid - 1 do
              let row = Opf.Factors.ptdf_row f ~line in
              let ln = grid.N.lines.(line) in
              let d = Q.to_float ln.N.admittance in
              for j = 0 to grid.N.n_buses - 1 do
                let reference =
                  match reduced j with
                  | None -> 0.0
                  | Some c ->
                    let at bus =
                      match reduced bus with
                      | None -> 0.0
                      | Some r -> Linalg.Mat.get x r c
                    in
                    d *. (at ln.N.from_bus -. at ln.N.to_bus)
                in
                if not (close ~eps:1e-8 row.(j) reference) then
                  Alcotest.failf
                    "IEEE-%d line %d bus %d: sparse %.12f vs dense %.12f"
                    size line j row.(j) reference
              done
            done)
          [ 14; 30 ]);
    Alcotest.test_case "radial outage has no distribution factor" `Quick
      (fun () ->
        (* islanding outage: LODF is NaN by construction *)
        let mapped = N.true_topology five in
        mapped.(2) <- false;
        (* with line 3 out, line 6 is bus 3's only tie: its outage islands *)
        let topo = T.make ~mapped five in
        let f = Opf.Factors.make topo in
        Alcotest.(check bool) "nan" true
          (Float.is_nan (Opf.Factors.lodf f ~outage:5 0)));
  ]

(* ---- the production OPF (Float_opf) against its oracles ----

   The certified PTDF path is exact for the LP it states (PTDFs rounded to
   1e-6 steps), so against Certify.solve_exact on that same LP costs are
   bit-equal; against the exact angle LP (Dc_opf) they agree within the
   relative formulation tolerance stated in docs/certification.md. *)

let formulation_tolerance = 1e-5

let within_formulation name a b =
  let a = Q.to_float a and b = Q.to_float b in
  if Float.abs (a -. b) > formulation_tolerance *. Float.abs b then
    Alcotest.failf "%s: certified %.6f vs angle LP %.6f" name a b

let certified_vs_angle ?loads name topo =
  match (Opf.Float_opf.solve ?loads topo, Opf.Dc_opf.solve ?loads topo) with
  | Opf.Dc_opf.Dispatch c, Opf.Dc_opf.Dispatch a ->
    within_formulation name c.Opf.Dc_opf.cost a.Opf.Dc_opf.cost
  | Opf.Dc_opf.Infeasible, Opf.Dc_opf.Infeasible -> ()
  | _ -> Alcotest.failf "%s: formulations disagree on convergence" name

let stated_vs_exact name topo =
  match Opf.Float_opf.state topo with
  | None -> Alcotest.failf "%s: no shift factors" name
  | Some st -> (
    let exact =
      Certify.solve_exact st.Opf.Float_opf.problem st.Opf.Float_opf.objective
        ~constant:st.Opf.Float_opf.constant
    in
    match (Opf.Float_opf.solve_stated st, exact) with
    | Opf.Dc_opf.Dispatch d, Certify.Optimal { objective; _ } ->
      Alcotest.check qc (name ^ ": bit-equal cost") objective d.Opf.Dc_opf.cost
    | _ -> Alcotest.failf "%s: expected optima on both solves" name)

(* the first ranked single-line attack on a grid, as a poisoned
   (topology, loads) instance *)
let first_single_line spec =
  let grid = spec.Grid.Spec.grid in
  match Attack.Base_state.of_opf grid with
  | Error _ -> None
  | Ok base -> (
    match Attack.Single_line.all_feasible ~scenario:spec ~base with
    | [] -> None
    | (_, _, vec) :: _ ->
      Some
        ( T.make ~mapped:vec.Attack.Vector.mapped grid,
          vec.Attack.Vector.est_loads ))

let fast_opf_tests =
  [
    Alcotest.test_case "agrees with the exact LP on the 5-bus system" `Quick
      (fun () -> certified_vs_angle "5-bus" (T.make five));
    Alcotest.test_case "agrees with the exact LP on IEEE-14" `Quick (fun () ->
        certified_vs_angle "14-bus" (T.make (TS.ieee 14).Grid.Spec.grid));
    Alcotest.test_case "handles poisoned topology and loads" `Quick (fun () ->
        let mapped = N.true_topology five in
        mapped.(5) <- false;
        let loads =
          [| Q.zero; Q.of_ints 21 100; Q.of_ints 32 100; Q.of_ints 10 100;
             Q.of_ints 20 100 |]
        in
        certified_vs_angle ~loads "poisoned 5-bus" (T.make ~mapped five));
    Alcotest.test_case "cost equals the exact solve of its stated LP" `Quick
      (fun () ->
        List.iter
          (fun n ->
            stated_vs_exact (Printf.sprintf "%d-bus" n)
              (T.make (TS.ieee n).Grid.Spec.grid))
          [ 5; 14; 30; 57 ]);
    Alcotest.test_case "differential: angle LP on bundled and 100 seeded grids"
      `Slow (fun () ->
        (* base and first single-line poisoned instance of the bundled
           grids up to 30 buses and of 100 seeded 8-30-bus grids; the
           exact angle LP dominates the run time, so the instances are
           spread over two domains *)
        let rng = Grid.Gen.Rng.make 2024 in
        let generated =
          List.init 100 (fun i ->
              let n = 8 + Grid.Gen.Rng.int rng 23 in
              let seed = Grid.Gen.Rng.int rng 1_000_000 in
              (Printf.sprintf "gen %d (n=%d seed=%d)" i n seed,
               Grid.Gen.make ~seed n))
        in
        let bundled =
          List.map (fun n -> (Printf.sprintf "ieee %d" n, TS.ieee n)) [ 5; 14; 30 ]
        in
        let poisoned =
          Pool.with_pool ~jobs:2 (fun pool ->
              Pool.map pool
                ~f:(fun (name, spec) ->
                  certified_vs_angle (name ^ " base")
                    (T.make spec.Grid.Spec.grid);
                  match first_single_line spec with
                  | None -> 0
                  | Some (topo, loads) ->
                    certified_vs_angle ~loads (name ^ " poisoned") topo;
                    1)
                (bundled @ generated))
        in
        (* most seeded grids admit a stealthy single-line attack *)
        Alcotest.(check bool) "poisoned instances checked" true
          (List.fold_left ( + ) 0 poisoned >= 80));
  ]

let () =
  Alcotest.run "opf"
    [
      ("dc-opf", dc_opf_tests);
      ("smt-opf", smt_opf_tests);
      ("factors", factor_tests);
      ("fast-opf", fast_opf_tests);
    ]
