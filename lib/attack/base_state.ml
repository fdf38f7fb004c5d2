module Q = Numeric.Rat
module N = Grid.Network

type t = {
  grid : N.t;
  topo : Grid.Topology.t;
  gen : Q.t array;
  load : Q.t array;
  theta : Q.t array;
  flows : Q.t array;
}

(* flows for ALL lines, including hypothetical flows of open ones *)
let all_line_flows grid theta =
  Array.map
    (fun (ln : N.line) ->
      Q.mul ln.N.admittance (Q.sub theta.(ln.N.from_bus) theta.(ln.N.to_bus)))
    grid.N.lines

let of_dispatch ?exact grid ~gen =
  let b = grid.N.n_buses in
  let exact = match exact with Some e -> e | None -> b <= 30 in
  let load = Array.make b Q.zero in
  Array.iter (fun (l : N.load) -> load.(l.N.lbus) <- l.N.existing) grid.N.loads;
  let topo = Grid.Topology.make grid in
  if exact then
    match Grid.Powerflow.solve topo ~gen ~load with
    | Error e -> Error e
    | Ok sol ->
      Ok
        {
          grid;
          topo;
          gen;
          load;
          theta = sol.Grid.Powerflow.theta;
          flows = all_line_flows grid sol.Grid.Powerflow.theta;
        }
  else begin
    let genf = Array.map Q.to_float gen and loadf = Array.map Q.to_float load in
    match Grid.Powerflow.solve_float topo ~gen:genf ~load:loadf with
    | Error e -> Error e
    | Ok (theta_f, _) ->
      let theta =
        Array.map (fun v -> Q.round_to_digits 6 (Q.of_float v)) theta_f
      in
      Ok { grid; topo; gen; load; theta; flows = all_line_flows grid theta }
  end

let of_opf grid =
  match Opf.Float_opf.solve (Grid.Topology.make grid) with
  | Opf.Dc_opf.Infeasible -> Error "base OPF infeasible"
  | Opf.Dc_opf.Unbounded -> Error "base OPF unbounded"
  | Opf.Dc_opf.Dispatch d ->
    let gen = Array.make grid.N.n_buses Q.zero in
    Array.iteri
      (fun k (g : N.gen) -> gen.(g.N.gbus) <- d.Opf.Dc_opf.pg.(k))
      grid.N.gens;
    of_dispatch grid ~gen

let proportional grid =
  let total = N.total_load grid in
  let cap =
    Array.fold_left (fun acc (g : N.gen) -> Q.add acc g.N.pmax) Q.zero grid.N.gens
  in
  if Q.is_zero cap then Error "no generation capacity"
  else begin
    let share = Q.div total cap in
    let gen = Array.make grid.N.n_buses Q.zero in
    Array.iter
      (fun (g : N.gen) -> gen.(g.N.gbus) <- Q.mul g.N.pmax share)
      grid.N.gens;
    of_dispatch grid ~gen
  end
