(* Seeded generated grids with a pinned amount of verification work, so
   that every seed of a workload asks the program for the same work. *)

(* candidates of a grid that the audit cannot prune, i.e. the OPF solves
   an analysis of it pays for *)
let solves_needed spec =
  let grid = spec.Grid.Spec.grid in
  match
    (Attack.Base_state.of_opf grid, Opf.Opf_auto.solve_factors (Grid.Topology.make grid))
  with
  | Ok base, Opf.Dc_opf.Dispatch d ->
    Audit.classify ~grid ~base_dispatch:d.Opf.Dc_opf.pg ~islanding_sound:true
      ~interval_active:true
      ~candidates:(Attack.Single_line.all_feasible ~scenario:spec ~base)
    |> List.filter (fun v -> v = Audit.Solve)
    |> List.length
  | _ -> -1

(* The first [buses]-bus grid of [rng]'s stream whose solve count scores 0
   under [miss] (how far it is from the wanted work), or the best of
   [tries] draws. *)
let grid rng ~buses ~tries ~miss =
  let rec draw k best =
    let spec = Grid.Gen.make ~seed:(Util.Rng.grid_seed rng) buses in
    let d = miss (solves_needed spec) in
    let best = match best with Some (bd, _) when bd <= d -> best | _ -> Some (d, spec) in
    if d = 0 || k = 1 then snd (Option.get best) else draw (k - 1) best
  in
  Grid.Spec.print (draw tries None)
