module Q = Numeric.Rat
module N = Grid.Network

type measurement = {
  label : string;
  system_size : int;
  seconds : float;
  allocated_mb : float;
  result : string;
  counters : (string * int) list;
}

(* deterministic scenario perturbation *)
let randomize_scenario ~seed (spec : Grid.Spec.t) =
  let state = ref (seed * 2654435761) in
  let next () =
    state := (!state * 1103515245) + 12345;
    (!state lsr 16) land 0x3FFFFFFF
  in
  let rand n = next () mod n in
  let grid = spec.Grid.Spec.grid in
  (* resource limits: 6..16 measurements, 2..5 buses *)
  let max_meas = 6 + rand 11 in
  let max_buses = 2 + rand 4 in
  (* make a few percent of measurements inaccessible *)
  let meas =
    Array.map
      (fun (ms : N.meas) ->
        if ms.N.accessible && rand 20 = 0 then { ms with N.accessible = false }
        else ms)
      grid.N.meas
  in
  {
    spec with
    Grid.Spec.grid = { grid with N.meas };
    max_meas;
    max_buses;
  }

let base_state_for (spec : Grid.Spec.t) =
  let grid = spec.Grid.Spec.grid in
  if grid.N.n_buses = 5 then
    Attack.Base_state.of_dispatch grid
      ~gen:(Grid.Test_systems.case_study_base_dispatch ())
  else Attack.Base_state.of_opf grid

let timed ~label ~size f =
  let a0 = Gc.allocated_bytes () in
  let before = Obs.snapshot () in
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let seconds = Unix.gettimeofday () -. t0 in
  let allocated_mb = (Gc.allocated_bytes () -. a0) /. 1.0e6 in
  let delta = Obs.diff ~before ~after:(Obs.snapshot ()) in
  {
    label;
    system_size = size;
    seconds;
    allocated_mb;
    result;
    counters = delta.Obs.counters;
  }

let impact_run ~mode ?(increase_pct = Q.of_ints 3 2) ?(max_candidates = 25)
    ~seed spec =
  let spec = randomize_scenario ~seed spec in
  let spec = { spec with Grid.Spec.min_increase_pct = increase_pct } in
  let size = spec.Grid.Spec.grid.N.n_buses in
  let mode_tag =
    match mode with
    | Attack.Encoder.Topology_only -> "topo"
    | Attack.Encoder.With_state_infection -> "topo+state"
    | Attack.Encoder.Ufdi_only -> "ufdi"
  in
  match base_state_for spec with
  | Error e ->
    {
      label = Printf.sprintf "impact/%s/seed%d" mode_tag seed;
      system_size = size;
      seconds = 0.0;
      allocated_mb = 0.0;
      result = "base-error: " ^ e;
      counters = [];
    }
  | Ok base ->
    timed ~label:(Printf.sprintf "impact/%s/seed%d" mode_tag seed) ~size
      (fun () ->
        (* paper Section IV-A: single-line topology attacks on the larger
           systems keep the analysis tractable *)
        let mtc = if size >= 30 then Some 1 else None in
        let config =
          {
            Impact.default_config with
            Impact.mode;
            max_candidates;
            max_topology_changes = mtc;
          }
        in
        match Impact.analyze ~config ~scenario:spec ~base () with
        | Impact.Attack_found s ->
          Printf.sprintf "attack(%d cand)" s.Impact.candidates
        | Impact.No_attack { candidates } ->
          Printf.sprintf "no-attack(%d cand)" candidates
        | Impact.Base_infeasible e -> "base-infeasible: " ^ e)

let attack_model_run ~mode ~seed spec =
  let spec = randomize_scenario ~seed spec in
  let size = spec.Grid.Spec.grid.N.n_buses in
  match base_state_for spec with
  | Error e ->
    {
      label = Printf.sprintf "attack-model/seed%d" seed;
      system_size = size;
      seconds = 0.0;
      allocated_mb = 0.0;
      result = "base-error: " ^ e;
      counters = [];
    }
  | Ok base ->
    timed ~label:(Printf.sprintf "attack-model/seed%d" seed) ~size (fun () ->
        let solver = Smt.Solver.create () in
        let mtc = if size >= 30 then Some 1 else None in
        let _vars =
          Attack.Encoder.encode ?max_topology_changes:mtc solver ~mode
            ~scenario:spec ~base
        in
        match Smt.Solver.check solver with
        | `Sat -> "sat"
        | `Unsat -> "unsat")

(* unsatisfiable impact cases (Fig. 4c): an unattainable target with a
   tight substation budget, so the solver must exhaust the vector space *)
let unsat_impact_run ~mode ~seed spec =
  let spec = randomize_scenario ~seed spec in
  let spec =
    {
      spec with
      Grid.Spec.min_increase_pct = Q.of_int 100000;
      max_buses = 2;
      max_meas = 6;
    }
  in
  let size = spec.Grid.Spec.grid.N.n_buses in
  match base_state_for spec with
  | Error e ->
    {
      label = Printf.sprintf "unsat-impact/seed%d" seed;
      system_size = size;
      seconds = 0.0;
      allocated_mb = 0.0;
      result = "base-error: " ^ e;
      counters = [];
    }
  | Ok base ->
    timed ~label:(Printf.sprintf "unsat-impact/seed%d" seed) ~size (fun () ->
        let mtc = if size >= 30 then Some 1 else None in
        let config =
          {
            Impact.default_config with
            Impact.mode;
            max_candidates = 100;
            max_topology_changes = mtc;
          }
        in
        match Impact.analyze ~config ~scenario:spec ~base () with
        | Impact.Attack_found _ -> "unexpected-attack"
        | Impact.No_attack { candidates } ->
          Printf.sprintf "no-attack(%d cand)" candidates
        | Impact.Base_infeasible e -> "base-infeasible: " ^ e)

(* unsatisfiable attack-model-only cases (Fig. 5c): a substation budget of
   one cannot cover the >= 2 buses any stealthy line attack must touch *)
let unsat_attack_model_run ~mode ~seed spec =
  let spec = randomize_scenario ~seed spec in
  let spec = { spec with Grid.Spec.max_buses = 1 } in
  let size = spec.Grid.Spec.grid.N.n_buses in
  match base_state_for spec with
  | Error e ->
    {
      label = Printf.sprintf "unsat-attack-model/seed%d" seed;
      system_size = size;
      seconds = 0.0;
      allocated_mb = 0.0;
      result = "base-error: " ^ e;
      counters = [];
    }
  | Ok base ->
    timed ~label:(Printf.sprintf "unsat-attack-model/seed%d" seed) ~size
      (fun () ->
        let solver = Smt.Solver.create () in
        let mtc = if size >= 30 then Some 1 else None in
        let _vars =
          Attack.Encoder.encode ?max_topology_changes:mtc solver ~mode
            ~scenario:spec ~base
        in
        match Smt.Solver.check solver with
        | `Sat -> "sat"
        | `Unsat -> "unsat")

let opf_model_run ~tightness spec =
  let grid = spec.Grid.Spec.grid in
  let size = grid.N.n_buses in
  let topo = Grid.Topology.make grid in
  match Opf.Float_opf.solve topo with
  | Opf.Dc_opf.Infeasible | Opf.Dc_opf.Unbounded ->
    {
      label = "opf-model";
      system_size = size;
      seconds = 0.0;
      allocated_mb = 0.0;
      result = "base-infeasible";
      counters = [];
    }
  | Opf.Dc_opf.Dispatch d ->
    let opt = d.Opf.Dc_opf.cost in
    let budget, tag =
      match tightness with
      | `Loose -> (Q.mul opt (Q.of_ints 12 10), "loose")
      | `Medium -> (Q.mul opt (Q.of_ints 101 100), "medium")
      | `Tight -> (opt, "tight")
    in
    timed ~label:(Printf.sprintf "opf-model/%s" tag) ~size (fun () ->
        match Opf.Smt_opf.feasible topo ~budget with
        | `Sat -> "sat"
        | `Unsat -> "unsat")

let unsat_opf_model_run spec =
  let grid = spec.Grid.Spec.grid in
  let size = grid.N.n_buses in
  let topo = Grid.Topology.make grid in
  match Opf.Float_opf.solve topo with
  | Opf.Dc_opf.Infeasible | Opf.Dc_opf.Unbounded ->
    {
      label = "unsat-opf-model";
      system_size = size;
      seconds = 0.0;
      allocated_mb = 0.0;
      result = "base-infeasible";
      counters = [];
    }
  | Opf.Dc_opf.Dispatch d ->
    (* a budget strictly below the optimum is unsatisfiable *)
    let budget = Q.mul d.Opf.Dc_opf.cost (Q.of_ints 99 100) in
    timed ~label:"unsat-opf-model" ~size (fun () ->
        match Opf.Smt_opf.feasible topo ~budget with
        | `Sat -> "sat(unexpected)"
        | `Unsat -> "unsat")

let memory_table_row (spec : Grid.Spec.t) =
  match base_state_for spec with
  | Error e -> Error e
  | Ok base -> (
    let spec_r = randomize_scenario ~seed:1 spec in
    (* attack model (with state infection, as Table IV measures) *)
    let a0 = Gc.allocated_bytes () in
    let solver = Smt.Solver.create () in
    let mtc = if spec.Grid.Spec.grid.N.n_buses >= 30 then Some 1 else None in
    let _vars =
      Attack.Encoder.encode ?max_topology_changes:mtc solver
        ~mode:Attack.Encoder.With_state_infection ~scenario:spec_r ~base
    in
    let (_ : [ `Sat | `Unsat ]) = Smt.Solver.check solver in
    let attack_mb = (Gc.allocated_bytes () -. a0) /. 1.0e6 in
    (* OPF model *)
    let grid = spec.Grid.Spec.grid in
    match Opf.Float_opf.solve (Grid.Topology.make grid) with
    | Opf.Dc_opf.Infeasible | Opf.Dc_opf.Unbounded -> Error "base infeasible"
    | Opf.Dc_opf.Dispatch d ->
      let b0 = Gc.allocated_bytes () in
      let (_ : [ `Sat | `Unsat ]) =
        Opf.Smt_opf.feasible (Grid.Topology.make grid)
          ~budget:(Q.mul d.Opf.Dc_opf.cost (Q.of_ints 101 100))
      in
      let opf_mb = (Gc.allocated_bytes () -. b0) /. 1.0e6 in
      Ok (attack_mb, opf_mb))
