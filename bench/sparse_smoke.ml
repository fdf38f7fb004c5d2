(* sparse-smoke: CI gate for the sparse linear-algebra backend and the
   synthetic grid generator.

   - sparse == dense: on every bundled grid the PTDF rows derived from
     the sparse LU ({!Opf.Factors.ptdf_row}, one transposed solve per
     line) must match a dense reference computed from {!Linalg.Lu}'s
     explicit inverse of the reduced susceptance matrix; on the 118-bus
     system the certified sparse-path OPF cost must equal, bit for bit,
     the exact simplex's optimum of the same stated LP.
   - generator: a seeded 300-bus synthetic grid is byte-identical across
     two generations, lints with zero errors, solves the base OPF on the
     certified backend, and completes one single-line impact
     verification — all with lp.certify.ok >= 1 and lp.certify.fail = 0.
   - the sparse machinery is actually exercised: linalg.lu.fill_in and
     opf.ptdf.rows_computed must be nonzero.

   CI entry point: dune build @sparse-smoke  (budget: < 30 s) *)

module Q = Numeric.Rat
module N = Grid.Network

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("sparse-smoke: FAIL: " ^ s);
      exit 1)
    fmt

let c_ok = Obs.Counter.make "lp.certify.ok"
let c_fail = Obs.Counter.make "lp.certify.fail"
let c_fill = Obs.Counter.make "linalg.lu.fill_in"
let c_rows = Obs.Counter.make "opf.ptdf.rows_computed"

(* dense PTDF reference: invert the reduced susceptance matrix outright
   (the quadratic-memory road the sparse backend exists to avoid — fine
   at smoke sizes) and read row i of the PTDF as
   d_i * ((e_f - e_t)^T B^-1), slack-padded to bus indexing *)
let dense_ptdf_rows topo =
  let grid = topo.Grid.Topology.grid in
  let slack = topo.Grid.Topology.slack in
  let b = grid.N.n_buses in
  let x = Linalg.Lu.inverse (Grid.Topology.b_reduced topo) in
  let reduced j = if j = slack then None else Some (if j < slack then j else j - 1) in
  Array.init (N.n_lines grid) (fun i ->
      let row = Array.make b 0.0 in
      if topo.Grid.Topology.mapped.(i) then begin
        let ln = grid.N.lines.(i) in
        let d = Q.to_float ln.N.admittance in
        let term bus sign =
          match reduced bus with
          | None -> ()
          | Some r ->
            for j = 0 to b - 1 do
              match reduced j with
              | None -> ()
              | Some c -> row.(j) <- row.(j) +. (sign *. d *. Linalg.Mat.get x r c)
            done
        in
        term ln.N.from_bus 1.0;
        term ln.N.to_bus (-1.0)
      end;
      row)

let check_ptdf_agreement name (spec : Grid.Spec.t) =
  let topo = Grid.Topology.make spec.Grid.Spec.grid in
  let factors = Opf.Factors.make topo in
  let dense = dense_ptdf_rows topo in
  Array.iteri
    (fun i reference ->
      let sparse = Opf.Factors.ptdf_row factors ~line:i in
      Array.iteri
        (fun j expect ->
          let got = sparse.(j) in
          let scale = 1.0 +. Float.abs expect in
          if Float.abs (got -. expect) > 1e-6 *. scale then
            fail "%s: PTDF row %d bus %d: sparse %.9f vs dense %.9f" name i j
              got expect)
        reference)
    dense

let solved name = function
  | Opf.Dc_opf.Dispatch d -> d
  | Opf.Dc_opf.Infeasible -> fail "%s: unexpected infeasible" name
  | Opf.Dc_opf.Unbounded -> fail "%s: unexpected unbounded" name

let () =
  Obs.Clock.set Unix.gettimeofday;
  Obs.set_enabled true;
  let t0 = Unix.gettimeofday () in

  (* 1. certified sparse-path cost == exact shift-factor cost on 118-bus
     (both sides optimize over rounded PTDF coefficients — 1e-6 steps on
     the certified path, 1e-5 on the exact simplex — so agreement is up
     to rounding, not bit-exact).  The exact rational simplex dominates
     the smoke's wall clock, so it runs on its own domain while the
     generator and agreement checks proceed; the Obs counters asserted at
     the end are atomic (see pool-smoke). *)
  let cost_118 =
    Domain.spawn (fun () ->
        match Grid.Spec.parse_file "../data/118.grid" with
        | Error e -> fail "118.grid: parse: %s" e
        | Ok spec ->
          let topo = Grid.Topology.make spec.Grid.Spec.grid in
          match Opf.Float_opf.state topo with
          | None -> fail "118: no shift factors"
          | Some st -> (
            let certified =
              (solved "118 certified" (Opf.Float_opf.solve_stated st))
                .Opf.Dc_opf.cost
            in
            match
              Certify.solve_exact st.Opf.Float_opf.problem
                st.Opf.Float_opf.objective ~constant:st.Opf.Float_opf.constant
            with
            | Certify.Optimal { objective; _ } -> (certified, objective)
            | _ -> fail "118 exact: no optimum"))
  in

  (* 2. sparse-vs-dense PTDF agreement on every bundled grid *)
  let bundled = [ "5"; "14"; "30"; "57"; "118"; "cs1"; "cs2" ] in
  List.iter
    (fun stem ->
      let file = Printf.sprintf "../data/%s.grid" stem in
      match Grid.Spec.parse_file file with
      | Error e -> fail "%s: parse: %s" file e
      | Ok spec -> check_ptdf_agreement stem spec)
    bundled;

  (* 3. seeded 300-bus generation is deterministic and lint-clean *)
  let spec = Grid.Gen.make ~seed:42 300 in
  let again = Grid.Gen.make ~seed:42 300 in
  if not (String.equal (Grid.Spec.print spec) (Grid.Spec.print again)) then
    fail "gen 300 seed 42: two generations differ";
  let diags = Analysis.Grid_lint.check spec in
  let errors = Analysis.Diagnostic.count_errors diags in
  if errors <> 0 then
    fail "gen 300 seed 42: %d lint error(s): %s" errors
      (Format.asprintf "%a" Analysis.Diagnostic.pp_list diags);

  (* 4. base OPF + one single-line impact verification *)
  let grid = spec.Grid.Spec.grid in
  let base =
    match Attack.Base_state.proportional grid with
    | Ok b -> b
    | Error e -> fail "gen 300: base state: %s" e
  in
  let config =
    {
      Topoguard.Impact.default_config with
      use_closed_form = true;
      max_topology_changes = Some 1;
      max_candidates = 1;
    }
  in
  (match Topoguard.Impact.analyze ~config ~scenario:spec ~base () with
  | Topoguard.Impact.Base_infeasible e -> fail "gen 300: base infeasible: %s" e
  | Topoguard.Impact.Attack_found { candidates; _ }
  | Topoguard.Impact.No_attack { candidates } ->
    if candidates < 1 then fail "gen 300: no candidate verified");

  let c, e = Domain.join cost_118 in
  if not (Q.equal c e) then
    fail "118-bus cost: certified %s vs exact %s" (Q.to_string c)
      (Q.to_string e);

  (* 5. counters: the sparse machinery really ran, every certificate
     validated *)
  let ok = Obs.Counter.get c_ok in
  let failed = Obs.Counter.get c_fail in
  if ok < 1 then fail "lp.certify.ok = %d, expected >= 1" ok;
  if failed <> 0 then fail "lp.certify.fail = %d, expected 0" failed;
  let fill = Obs.Counter.get c_fill in
  if fill <= 0 then fail "linalg.lu.fill_in = %d, expected > 0" fill;
  let rows = Obs.Counter.get c_rows in
  if rows <= 0 then fail "opf.ptdf.rows_computed = %d, expected > 0" rows;

  Printf.printf
    "sparse-smoke: OK (%.1fs; certify ok=%d fail=%d, fill_in=%d, \
     ptdf_rows=%d)\n"
    (Unix.gettimeofday () -. t0)
    ok failed fill rows
