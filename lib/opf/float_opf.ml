(* PTDF-formulation OPF on the certified float path: the LP is posed over
   exact rationals (float PTDFs rounded to 1e-6 steps), solved by the
   float simplex, and the verdict is proved or repaired by [Certify] — so
   the reported cost and dispatch are exact optima of the stated problem
   at every system size.

   The rounding is what keeps the exact side scalable: full dyadic images
   of the floats ([Rat.of_float], denominators ~2^52) make every exact
   operation downstream — constraint screening, the certificate's basis
   refactorization, the reported cost — grow thousand-digit rationals at
   hundreds of buses.  A 1e-6 step keeps them small, and the certificate
   is exact for the stated (rounded) LP either way; the float PTDFs were
   already approximations of the true factors. *)

module Q = Numeric.Rat
module N = Grid.Network

(* |PTDF| <= ~2, so the scaled value fits a native int comfortably *)
let q_of_ptdf f = Q.of_ints (int_of_float (Float.round (f *. 1e6)) ) 1_000_000

let obs_solves = Obs.Counter.make "opf.float_opf.solves"
let obs_timer = Obs.Timer.make "opf.float_opf.solve"

type stated = {
  problem : Certify.t;
  objective : (int * Q.t) list;
  constant : Q.t;
  pg : int array;
  topo : Grid.Topology.t;
  loads : Q.t array;
}

let state ?loads (topo : Grid.Topology.t) =
  let grid = topo.Grid.Topology.grid in
  let b = grid.N.n_buses in
  let loads =
    match loads with
    | Some v -> v
    | None ->
      let v = Array.make b Q.zero in
      Array.iter (fun (l : N.load) -> v.(l.N.lbus) <- l.N.existing) grid.N.loads;
      v
  in
  match Factors.make topo with
  | exception Failure _ -> None
  | factors ->
    let qp = Certify.create () in
    let pg =
      Array.map
        (fun (g : N.gen) -> Certify.add_var ~lo:g.N.pmin ~hi:g.N.pmax qp)
        grid.N.gens
    in
    let total_load = Array.fold_left Q.add Q.zero loads in
    (* warm start at the balanced proportional dispatch: phase I then only
       repairs the few lines the optimum actually stresses *)
    let cap_total =
      Array.fold_left (fun acc (g : N.gen) -> Q.add acc g.N.pmax) Q.zero
        grid.N.gens
    in
    if Q.sign cap_total > 0 then
      Array.iteri
        (fun k (g : N.gen) ->
          Certify.set_initial qp pg.(k)
            (Q.div (Q.mul total_load g.N.pmax) cap_total))
        grid.N.gens;
    Certify.add_eq qp
      (Array.to_list (Array.map (fun v -> (v, Q.one)) pg))
      total_load;
    Array.iteri
      (fun i (ln : N.line) ->
        if topo.Grid.Topology.mapped.(i) then begin
          (* one cached PTDF row per screened line (a single transposed
             sparse solve), indexed per bus below *)
          let row = Factors.ptdf_row factors ~line:i in
          let ptdf j = q_of_ptdf row.(j) in
          let gen_terms =
            Array.to_list
              (Array.mapi
                 (fun k (g : N.gen) -> (pg.(k), ptdf g.N.gbus))
                 grid.N.gens)
          in
          let load_part = ref Q.zero in
          for j = 0 to b - 1 do
            if not (Q.is_zero loads.(j)) then
              load_part := Q.add !load_part (Q.mul (ptdf j) loads.(j))
          done;
          let cap = ln.N.capacity in
          (* exact constraint screening: a side is dropped only when the
             generation box provably keeps the flow inside the limit, so
             the reduced LP has the same feasible set *)
          let lo_flow = ref (Q.neg !load_part)
          and hi_flow = ref (Q.neg !load_part) in
          List.iteri
            (fun k (_, c) ->
              let g = grid.N.gens.(k) in
              let a = Q.mul c g.N.pmin and bb = Q.mul c g.N.pmax in
              lo_flow := Q.add !lo_flow (Q.min a bb);
              hi_flow := Q.add !hi_flow (Q.max a bb))
            gen_terms;
          if Q.( > ) !hi_flow cap then
            Certify.add_le qp gen_terms (Q.add cap !load_part);
          if Q.( < ) !lo_flow (Q.neg cap) then
            Certify.add_ge qp gen_terms (Q.add (Q.neg cap) !load_part)
        end)
      grid.N.lines;
    let objective =
      Array.to_list
        (Array.mapi (fun k (g : N.gen) -> (pg.(k), g.N.beta)) grid.N.gens)
    in
    let constant =
      Array.fold_left (fun acc (g : N.gen) -> Q.add acc g.N.alpha) Q.zero
        grid.N.gens
    in
    Some { problem = qp; objective; constant; pg; topo; loads }

let solve_stated st =
  let grid = st.topo.Grid.Topology.grid in
  let b = grid.N.n_buses in
  match Certify.minimize st.problem st.objective ~constant:st.constant with
  | Certify.Infeasible -> Dc_opf.Infeasible
  | Certify.Unbounded -> Dc_opf.Unbounded
  | Certify.Optimal { objective; values; certified = _ } ->
    let pg_v = Array.map (fun v -> values.(v)) st.pg in
    (* recover angles/flows from a float power flow at the exact optimum;
       [Rat.of_float] keeps the recovered values exactly as computed
       rather than rounding them to 4 decimals *)
    let gen_bus = Array.make b 0.0 in
    Array.iteri
      (fun k (g : N.gen) -> gen_bus.(g.N.gbus) <- Q.to_float pg_v.(k))
      grid.N.gens;
    let loads_f = Array.map Q.to_float st.loads in
    let q_exact f = if Float.is_finite f then Q.of_float f else Q.zero in
    (match Grid.Powerflow.solve_float st.topo ~gen:gen_bus ~load:loads_f with
    | Ok (theta_f, flows_f) ->
      Dc_opf.Dispatch
        {
          cost = objective;
          pg = pg_v;
          theta = Array.map q_exact theta_f;
          flows = Array.map q_exact flows_f;
        }
    | Error _ ->
      Dc_opf.Dispatch
        {
          cost = objective;
          pg = pg_v;
          theta = Array.make b Q.zero;
          flows = Array.make (N.n_lines grid) Q.zero;
        })

let solve ?loads topo =
  Obs.Counter.incr obs_solves;
  Obs.Timer.with_ obs_timer (fun () ->
      match state ?loads topo with
      | None -> Dc_opf.Infeasible
      | Some st -> solve_stated st)
