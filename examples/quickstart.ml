(* Quickstart: the paper's 5-bus system end to end — power flow, state
   estimation with a stealthy UFDI injection, and optimal power flow.

   Run with: dune exec examples/quickstart.exe *)

module Q = Numeric.Rat
module N = Grid.Network

let qs ?(d = 4) v = Q.to_decimal_string ~digits:d v

let () =
  let grid = Grid.Test_systems.five_bus () in
  Format.printf "=== The paper's 5-bus test system (Fig. 3) ===@.%a@."
    N.pp grid;

  (* 1. base-case operating point: exact DC power flow *)
  let gen = Grid.Test_systems.case_study_base_dispatch () in
  let load = Array.make grid.N.n_buses Q.zero in
  Array.iter (fun (l : N.load) -> load.(l.N.lbus) <- l.N.existing) grid.N.loads;
  let topo = Grid.Topology.make grid in
  let sol =
    match Grid.Powerflow.solve topo ~gen ~load with
    | Ok s -> s
    | Error e -> failwith e
  in
  Format.printf "--- DC power flow at the observed operating point ---@.";
  Array.iteri
    (fun i f -> Format.printf "line %d flow: %s pu@." (i + 1) (qs f))
    sol.Grid.Powerflow.flows;

  (* 2. state estimation sees the same state from the measurements *)
  let full_meas =
    { grid with N.meas = Array.map (fun m -> { m with N.taken = true }) grid.N.meas }
  in
  let topo_f = Grid.Topology.make full_meas in
  let est = Estimation.Estimator.make topo_f in
  let z = Estimation.Estimator.measurement_vector topo_f sol in
  let r = Estimation.Estimator.estimate est ~z in
  Format.printf "--- WLS state estimation ---@.residual: %g@." r.Estimation.Estimator.residual;

  (* 3. a stealthy UFDI injection shifts the estimate but not the residual *)
  let c = [| 0.0; 0.02; 0.0; 0.0 |] in
  let a = Estimation.Ufdi.attack_vector topo_f ~c in
  let z' = Array.mapi (fun i zi -> zi +. a.(i)) z in
  let r' = Estimation.Estimator.estimate est ~z:z' in
  Format.printf
    "after injecting a = Hc (state 3 shifted by 0.02):@.\
    \  residual: %g (unchanged -> undetected)@.\
    \  estimated theta_3: %.4f (was %.4f)@."
    r'.Estimation.Estimator.residual
    r'.Estimation.Estimator.angles.(2)
    r.Estimation.Estimator.angles.(2);

  (* 4. optimal power flow: the economic dispatch the operator computes *)
  Format.printf "--- DC optimal power flow ---@.";
  match Opf.Float_opf.solve topo with
  | Opf.Dc_opf.Dispatch d ->
    Format.printf "optimal cost: $%s@." (qs ~d:2 d.Opf.Dc_opf.cost);
    Array.iteri
      (fun k p ->
        Format.printf "generator at bus %d: %s pu@."
          (grid.N.gens.(k).N.gbus + 1)
          (qs p))
      d.Opf.Dc_opf.pg
  | Opf.Dc_opf.Infeasible -> Format.printf "OPF infeasible@."
  | Opf.Dc_opf.Unbounded -> Format.printf "OPF unbounded@."
