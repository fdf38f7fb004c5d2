(* Tests for the static-analysis layer: grid lint over seeded defects,
   formula lint (interval propagation, duplicates, unknown variables),
   the LP presolve rules, and presolve/no-presolve solver equivalence on
   the bundled systems. *)

module Q = Numeric.Rat
module L = Smt.Linexp
module F = Smt.Form
module N = Grid.Network
module D = Analysis.Diagnostic
module P = Analysis.Presolve.Exact

let test name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let has_code c ds = Analysis.Diagnostic.by_code c ds <> []

let check_code name c ds =
  Alcotest.(check bool) (name ^ ": reports " ^ c) true (has_code c ds)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* ---- grid lint: seeded defects ---- *)

let with_grid f spec = { spec with Grid.Spec.grid = f spec.Grid.Spec.grid }

let map_line i f (g : N.t) =
  {
    g with
    N.lines = Array.mapi (fun j ln -> if j = i then f ln else ln) g.N.lines;
  }

let map_gen i f (g : N.t) =
  { g with N.gens = Array.mapi (fun j gn -> if j = i then f gn else gn) g.N.gens }

let map_load i f (g : N.t) =
  {
    g with
    N.loads = Array.mapi (fun j ld -> if j = i then f ld else ld) g.N.loads;
  }

let grid_lint_tests =
  [
    test "bundled systems lint clean" (fun () ->
        let specs =
          List.map (fun n -> (string_of_int n, Grid.Test_systems.ieee n))
            Grid.Test_systems.sizes
          @ [
              ("cs1", Grid.Test_systems.case_study_1 ());
              ("cs2", Grid.Test_systems.case_study_2 ());
            ]
        in
        List.iter
          (fun (name, spec) ->
            let ds = Analysis.Grid_lint.check spec in
            Alcotest.(check int) (name ^ " errors") 0 (D.count_errors ds))
          specs);
    test "islanding a bus is an error naming it" (fun () ->
        let spec = Grid.Test_systems.ieee 5 in
        let island = spec.Grid.Spec.grid.N.n_buses - 1 in
        let spec =
          with_grid
            (fun g ->
              {
                g with
                N.lines =
                  Array.map
                    (fun ln ->
                      if ln.N.from_bus = island || ln.N.to_bus = island then
                        { ln with N.in_true_topology = false }
                      else ln)
                    g.N.lines;
              })
            spec
        in
        let ds = Analysis.Grid_lint.check spec in
        check_code "islanded" "islanded-bus" ds;
        let d = List.hd (Analysis.Diagnostic.by_code "islanded-bus" ds) in
        Alcotest.(check bool) "names bus 5" true
          (contains d.D.message (string_of_int (island + 1))));
    test "negative reactance is an error" (fun () ->
        let spec =
          with_grid
            (map_line 0 (fun ln ->
                 { ln with N.admittance = Q.neg ln.N.admittance }))
            (Grid.Test_systems.ieee 5)
        in
        check_code "admittance" "nonpositive-admittance"
          (Analysis.Grid_lint.check spec));
    test "inverted generator bounds are an error" (fun () ->
        let spec =
          with_grid
            (map_gen 0 (fun gn ->
                 { gn with N.pmin = gn.N.pmax; pmax = gn.N.pmin }))
            (Grid.Test_systems.ieee 5)
        in
        check_code "gen" "gen-bounds" (Analysis.Grid_lint.check spec));
    test "inverted load bounds are an error" (fun () ->
        let spec =
          with_grid
            (map_load 0 (fun ld ->
                 { ld with N.lmin = ld.N.lmax; lmax = ld.N.lmin }))
            (Grid.Test_systems.ieee 5)
        in
        check_code "load" "load-bounds" (Analysis.Grid_lint.check spec));
    test "self loop is an error" (fun () ->
        let spec =
          with_grid
            (map_line 0 (fun ln -> { ln with N.to_bus = ln.N.from_bus }))
            (Grid.Test_systems.ieee 5)
        in
        check_code "self loop" "self-loop" (Analysis.Grid_lint.check spec));
    test "duplicate line is a warning, truncated meas an error" (fun () ->
        let spec =
          with_grid
            (fun g ->
              {
                g with
                N.lines = Array.append g.N.lines [| g.N.lines.(0) |];
              })
            (Grid.Test_systems.ieee 5)
        in
        let ds = Analysis.Grid_lint.check spec in
        check_code "dup" "duplicate-line" ds;
        check_code "meas" "meas-count" ds);
    test "generation short of load is an error" (fun () ->
        let spec =
          with_grid
            (fun g ->
              {
                g with
                N.gens =
                  Array.map
                    (fun gn ->
                      { gn with N.pmax = Q.zero; pmin = Q.zero })
                    g.N.gens;
              })
            (Grid.Test_systems.ieee 5)
        in
        check_code "shortfall" "capacity-shortfall"
          (Analysis.Grid_lint.check spec));
    test "parse ~validate:false admits a broken file for linting" (fun () ->
        let spec = Grid.Test_systems.ieee 5 in
        let broken =
          with_grid
            (map_line 0 (fun ln ->
                 { ln with N.admittance = Q.neg ln.N.admittance }))
            spec
        in
        let text = Grid.Spec.print broken in
        (match Grid.Spec.parse text with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "validating parse should reject it");
        match Grid.Spec.parse ~validate:false text with
        | Error e -> Alcotest.fail ("lenient parse failed: " ^ e)
        | Ok spec ->
          check_code "lint after lenient parse" "nonpositive-admittance"
            (Analysis.Grid_lint.check spec));
  ]

(* ---- formula lint ---- *)

let x = L.var 0

let tag_of d = match d.D.tag with Some t -> t | None -> "<none>"

let form_lint_tests =
  [
    test "contradictory bounds across assertions" (fun () ->
        let ds =
          Analysis.Form_lint.check
            [
              ("eq36", F.le x (L.const Q.one));
              ("eq36", F.ge x (L.const (Q.of_int 2)));
            ]
        in
        check_code "x<=1 & x>=2" "contradictory-bounds" ds;
        let d = List.hd (Analysis.Diagnostic.by_code "contradictory-bounds" ds) in
        Alcotest.(check string) "tagged" "eq36" (tag_of d));
    test "contradiction found under scaling and orientation" (fun () ->
        (* 2x <= 2  and  -3x <= -6, i.e. x <= 1 and x >= 2 *)
        let ds =
          Analysis.Form_lint.check
            [
              ("a", F.le (L.scale (Q.of_int 2) x) (L.const (Q.of_int 2)));
              ( "b",
                F.le
                  (L.scale (Q.of_int (-3)) x)
                  (L.const (Q.of_int (-6))) );
            ]
        in
        check_code "scaled" "contradictory-bounds" ds);
    test "duplicate atom is a warning" (fun () ->
        let a = F.le x (L.const Q.one) in
        let ds = Analysis.Form_lint.check [ ("t1", a); ("t2", a) ] in
        check_code "dup" "duplicate-atom" ds;
        Alcotest.(check int) "no errors" 0 (D.count_errors ds));
    test "contradictory boolean literals" (fun () ->
        let ds =
          Analysis.Form_lint.check
            [ ("t", F.bvar 0); ("t", F.not_ (F.bvar 0)) ]
        in
        check_code "b & not b" "contradictory-literals" ds);
    test "unknown variable ids against solver counts" (fun () ->
        let ds =
          Analysis.Form_lint.check ~n_bools:1 ~n_reals:1
            [ ("t", F.bvar 3); ("t", F.le (L.var 7) (L.const Q.one)) ]
        in
        check_code "bool" "unknown-bool-var" ds;
        check_code "real" "unknown-real-var" ds);
    test "raw constant atom deciding false is an error" (fun () ->
        (* the smart constructors fold these; build the node directly *)
        let ds =
          Analysis.Form_lint.check [ ("t", F.Atom (F.Le, L.const Q.one)) ]
        in
        check_code "1<=0" "trivial-unsat-atom" ds);
    test "asserted false is an error" (fun () ->
        check_code "false" "asserted-false"
          (Analysis.Form_lint.check [ ("t", F.fls) ]));
    test "simplify drops implied atoms and folds contradictions" (fun () ->
        let le1 = F.le x (L.const Q.one) in
        let le2 = F.le x (L.const (Q.of_int 2)) in
        Alcotest.(check bool) "x<=2 implied by x<=1" true
          (Analysis.Form_lint.simplify (F.and_ [ le1; le2 ]) = le1);
        Alcotest.(check bool) "empty interval folds to false" true
          (Analysis.Form_lint.simplify
             (F.and_ [ le1; F.ge x (L.const (Q.of_int 2)) ])
          = F.fls));
    test "clean 5- and 14-bus encodings have zero errors" (fun () ->
        List.iter
          (fun spec ->
            let g = spec.Grid.Spec.grid in
            match Attack.Base_state.proportional g with
            | Error e -> Alcotest.fail e
            | Ok base ->
              let solver = Smt.Solver.create () in
              let acc = ref [] in
              let on_assert tag f = acc := (tag, f) :: !acc in
              ignore
                (Attack.Encoder.encode ~on_assert solver
                   ~mode:Attack.Encoder.Topology_only ~scenario:spec ~base);
              let ds =
                Analysis.Form_lint.check
                  ~n_bools:(Smt.Solver.n_bools solver)
                  ~n_reals:(Smt.Solver.n_reals solver)
                  (List.rev !acc)
              in
              Alcotest.(check int) "no errors" 0 (D.count_errors ds))
          [ Grid.Test_systems.ieee 5; Grid.Test_systems.ieee14 () ]);
    test "corrupt Eq. 36 interval surfaces as a tagged contradiction"
      (fun () ->
        let spec =
          with_grid
            (map_load 0 (fun ld ->
                 { ld with N.lmin = ld.N.lmax; lmax = ld.N.lmin }))
            (Grid.Test_systems.case_study_1 ())
        in
        match Attack.Base_state.proportional spec.Grid.Spec.grid with
        | Error e -> Alcotest.fail e
        | Ok base ->
          let solver = Smt.Solver.create () in
          let acc = ref [] in
          let on_assert tag f = acc := (tag, f) :: !acc in
          ignore
            (Attack.Encoder.encode ~on_assert solver
               ~mode:Attack.Encoder.Topology_only ~scenario:spec ~base);
          let ds = Analysis.Form_lint.check (List.rev !acc) in
          let bad = Analysis.Diagnostic.by_code "contradictory-bounds" ds in
          Alcotest.(check bool) "found" true (bad <> []);
          Alcotest.(check bool) "tagged eq36" true
            (List.exists (fun d -> d.D.tag = Some "eq36") bad));
  ]

(* ---- formula lint: derived (non-monic) bounds and simplify ---- *)

let y = L.var 1

let prop ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* random conjunctions of single- and two-variable atoms over 3 reals *)
let gen_conjunction =
  QCheck2.Gen.(
    let atom =
      let* v = int_range 0 2 in
      let* c = int_range (-3) 3 in
      let c = if c = 0 then 1 else c in
      let* k = int_range (-4) 4 in
      let* shape = int_range 0 4 in
      let e =
        if shape = 4 then L.add (L.var v) (L.var ((v + 1) mod 3))
        else L.scale (Q.of_int c) (L.var v)
      in
      let k = L.const (Q.of_int k) in
      return
        (match shape with
        | 0 -> F.le e k
        | 1 -> F.ge e k
        | 2 -> F.lt e k
        | 3 -> F.eq e k
        | _ -> F.ge e k)
    in
    let* atoms = list_size (int_range 1 7) atom in
    return (F.and_ atoms))

let derived_bound_tests =
  [
    test "per-variable bounds refute a sum atom" (fun () ->
        (* x >= 1, y >= 1 force x + y >= 2, contradicting x + y <= 1 *)
        let ds =
          Analysis.Form_lint.check
            [
              ("a", F.ge x (L.const Q.one));
              ("b", F.ge y (L.const Q.one));
              ("c", F.le (L.add x y) (L.const Q.one));
            ]
        in
        check_code "x+y<=1" "contradictory-bounds" ds;
        let d = List.hd (D.by_code "contradictory-bounds" ds) in
        Alcotest.(check bool) "minimal tag set pinned" true
          (contains d.D.message "minimal tag set: {a, b, c}"));
    test "strictness decides the borderline sum" (fun () ->
        let bounds =
          [ ("a", F.ge x (L.const Q.one)); ("b", F.ge y (L.const Q.one)) ]
        in
        (* x + y < 2 is empty against inf = 2; x + y <= 2 is satisfiable *)
        check_code "strict" "contradictory-bounds"
          (Analysis.Form_lint.check
             (bounds @ [ ("c", F.lt (L.add x y) (L.const (Q.of_int 2))) ]));
        Alcotest.(check int) "non-strict borderline is feasible" 0
          (D.count_errors
             (Analysis.Form_lint.check
                (bounds @ [ ("c", F.le (L.add x y) (L.const (Q.of_int 2))) ]))));
    test "negative coefficients pick the opposite interval side" (fun () ->
        (* x >= 1 and y <= -1 force x - y >= 2, refuting x - y <= 1 *)
        let ds =
          Analysis.Form_lint.check
            [
              ("p", F.ge x (L.const Q.one));
              ("q", F.le y (L.const (Q.of_int (-1))));
              ("r", F.le (L.sub x y) (L.const Q.one));
            ]
        in
        check_code "x-y<=1" "contradictory-bounds" ds);
    test "unbounded partner variable blocks the derivation" (fun () ->
        (* y has no upper bound, so no sup for x + y exists: stay quiet *)
        let ds =
          Analysis.Form_lint.check
            [
              ("a", F.le x (L.const Q.one));
              ("b", F.ge (L.add x y) (L.const (Q.of_int 100)));
            ]
        in
        Alcotest.(check int) "no errors" 0 (D.count_errors ds));
    prop "simplify is idempotent" gen_conjunction (fun f ->
        let s = Analysis.Form_lint.simplify f in
        Analysis.Form_lint.simplify s = s);
    prop "simplify preserves models at the all-zero point" ~count:300
      gen_conjunction (fun f ->
        (* simplify may only drop implied atoms or fold the whole
           conjunction to false; a satisfying point stays satisfying *)
        let value _ = Q.zero in
        let rec eval = function
          | F.And fs -> List.for_all eval fs
          | F.True -> true
          | F.False -> false
          | F.Atom (op, e) ->
            let v = L.eval value e in
            (match op with
            | F.Le -> Q.( <= ) v Q.zero
            | F.Lt -> Q.( < ) v Q.zero)
          | F.Not f -> not (eval f)
          | F.Or fs -> List.exists eval fs
          | F.Bvar _ -> true
        in
        (not (eval f)) || eval (Analysis.Form_lint.simplify f));
  ]

(* ---- the solver-free audit ---- *)

let brute_force_bridges (topo : Grid.Topology.t) =
  let grid = topo.Grid.Topology.grid in
  let mapped = topo.Grid.Topology.mapped in
  let n = grid.N.n_buses in
  let components skip =
    let adj = Array.make n [] in
    Array.iteri
      (fun i (ln : N.line) ->
        if mapped.(i) && i <> skip then begin
          adj.(ln.N.from_bus) <- ln.N.to_bus :: adj.(ln.N.from_bus);
          adj.(ln.N.to_bus) <- ln.N.from_bus :: adj.(ln.N.to_bus)
        end)
      grid.N.lines;
    let seen = Array.make n false in
    let rec dfs u =
      if not seen.(u) then begin
        seen.(u) <- true;
        List.iter dfs adj.(u)
      end
    in
    let c = ref 0 in
    for u = 0 to n - 1 do
      if not seen.(u) then begin
        incr c;
        dfs u
      end
    done;
    !c
  in
  let base = components (-1) in
  (base, Array.init (N.n_lines grid) (fun i -> mapped.(i) && components i > base))

let audit_structure_systems () =
  List.map (fun n -> (string_of_int n, Grid.Test_systems.ieee n))
    Grid.Test_systems.sizes
  @ [
      ("cs1", Grid.Test_systems.case_study_1 ());
      ("cs2", Grid.Test_systems.case_study_2 ());
      ("gen40", Grid.Gen.make ~seed:7 40);
    ]

let relax_caps mult spec =
  with_grid
    (fun g ->
      {
        g with
        N.lines =
          Array.map
            (fun (ln : N.line) ->
              { ln with N.capacity = Q.mul ln.N.capacity (Q.of_int mult) })
            g.N.lines;
      })
    spec

let audit_tests =
  [
    test "bridges and components match leave-one-out removal" (fun () ->
        List.iter
          (fun (name, spec) ->
            let topo = Grid.Topology.make spec.Grid.Spec.grid in
            let s = Audit.Structure.analyze topo in
            let base, ref_bridges = brute_force_bridges topo in
            Alcotest.(check int) (name ^ " components") base s.Audit.Structure.components;
            Alcotest.(check (array bool)) (name ^ " bridges") ref_bridges
              s.Audit.Structure.bridge;
            (* every radial line is a bridge, never conversely stronger *)
            Array.iteri
              (fun i r ->
                if r then
                  Alcotest.(check bool)
                    (Printf.sprintf "%s radial line %d is a bridge" name (i + 1))
                    true s.Audit.Structure.bridge.(i))
              s.Audit.Structure.radial)
          (audit_structure_systems ()));
    test "parallel circuits are never bridges" (fun () ->
        let spec = Grid.Test_systems.ieee 5 in
        let g = spec.Grid.Spec.grid in
        let doubled =
          { g with N.lines = Array.append g.N.lines [| g.N.lines.(0) |] }
        in
        (* meas vector is now short, but Topology.make only reads lines *)
        let topo = Grid.Topology.make { doubled with N.meas = [||] } in
        let s = Audit.Structure.analyze topo in
        Alcotest.(check bool) "first copy" false s.Audit.Structure.bridge.(0);
        Alcotest.(check bool) "second copy" false
          s.Audit.Structure.bridge.(N.n_lines g));
    test "cost interval brackets the exact optimum" (fun () ->
        List.iter
          (fun n ->
            let spec = Grid.Test_systems.ieee n in
            let grid = spec.Grid.Spec.grid in
            let topo = Grid.Topology.make grid in
            match
              ( Audit.cost_floor grid,
                Audit.cost_ceiling grid,
                Opf.Dc_opf.solve topo )
            with
            | Some lo, Some hi, Opf.Dc_opf.Dispatch d ->
              Alcotest.(check bool)
                (Printf.sprintf "%d-bus floor <= T*" n)
                true
                (Q.( <= ) lo d.Opf.Dc_opf.cost);
              Alcotest.(check bool)
                (Printf.sprintf "%d-bus T* <= ceiling" n)
                true
                (Q.( <= ) d.Opf.Dc_opf.cost hi)
            | _ -> Alcotest.fail (Printf.sprintf "%d-bus: missing bound" n))
          [ 5; 14; 30 ]);
    test "audit run is sorted, deterministic, error-free on bundled systems"
      (fun () ->
        List.iter
          (fun n ->
            let spec = Grid.Test_systems.ieee n in
            let ds = Audit.run spec in
            Alcotest.(check int)
              (Printf.sprintf "%d-bus audit errors" n)
              0 (D.count_errors ds);
            Alcotest.(check bool) "sorted" true (D.sorted ds = ds);
            check_code "structure summary present" "graph-structure" ds;
            if n = 14 then check_code "14-bus bridge" "bridge-line" ds)
          [ 5; 14; 30 ]);
    slow "interval prune fires on an uncongested system and stays sound"
      (fun () ->
        (* 10x line capacities: the base optimum leaves every line slack,
           so the lone single-line candidate is statically prunable; the
           cross-check solves it anyway and must agree *)
        let spec = relax_caps 10 (Grid.Test_systems.ieee 14) in
        let grid = spec.Grid.Spec.grid in
        match Attack.Base_state.of_opf grid with
        | Error e -> Alcotest.fail e
        | Ok base ->
          let cands = Attack.Single_line.all_feasible ~scenario:spec ~base in
          Alcotest.(check bool) "has candidates" true (cands <> []);
          let dispatch =
            match Opf.Float_opf.solve (Grid.Topology.make grid) with
            | Opf.Dc_opf.Dispatch d -> d
            | _ -> Alcotest.fail "base infeasible"
          in
          let verdicts =
            Audit.classify ~grid ~base_dispatch:dispatch.Opf.Dc_opf.pg
              ~islanding_sound:true ~interval_active:true ~candidates:cands
          in
          Alcotest.(check bool) "interval prune fires" true
            (List.mem Audit.Prune_interval verdicts);
          (* parity with cross-check: outcomes identical, no unsound prune *)
          let c_pruned = Obs.Counter.make "audit.pruned.interval" in
          let c_unsound = Obs.Counter.make "audit.prune.unsound" in
          Obs.set_enabled true;
          let run audit audit_cross_check =
            let config =
              {
                Topoguard.Impact.default_config with
                Topoguard.Impact.mode = Attack.Encoder.Topology_only;
                use_closed_form = true;
                max_topology_changes = Some 1;
                audit;
                audit_cross_check;
              }
            in
            Topoguard.Impact.analyze ~config ~scenario:spec ~base ()
          in
          let pruned0 = Obs.Counter.get c_pruned in
          let unsound0 = Obs.Counter.get c_unsound in
          let on = run true true in
          let off = run false false in
          Alcotest.(check bool) "interval prune counted" true
            (Obs.Counter.get c_pruned > pruned0);
          Alcotest.(check int) "cross-check agrees" unsound0
            (Obs.Counter.get c_unsound);
          Alcotest.(check bool) "outcome parity" true (on = off));
  ]

(* ---- presolve rules ---- *)

let qi = Q.of_int
let no_bounds n = (Array.make n None, Array.make n None)

let run_exact ~n rows (lo, hi) = P.run ~n_vars:n ~lo ~hi rows

let presolve_rule_tests =
  [
    test "singleton row becomes a bound" (fun () ->
        match
          run_exact ~n:1
            [ { P.terms = [ (0, qi 2) ]; lo = None; hi = Some (qi 4) } ]
            (no_bounds 1)
        with
        | P.Reduced { hi; rows; stats; _ } ->
          Alcotest.(check bool) "hi tightened" true (hi.(0) = Some (qi 2));
          Alcotest.(check int) "row gone" 0 (List.length rows);
          Alcotest.(check int) "eliminated" 1 stats.P.rows_eliminated;
          Alcotest.(check int) "tightened" 1 stats.P.bounds_tightened
        | P.Infeasible _ -> Alcotest.fail "unexpected infeasible");
    test "negative singleton coefficient swaps the bound side" (fun () ->
        match
          run_exact ~n:1
            [ { P.terms = [ (0, qi (-1)) ]; lo = None; hi = Some (qi 3) } ]
            (no_bounds 1)
        with
        | P.Reduced { lo; _ } ->
          Alcotest.(check bool) "-x <= 3 means x >= -3" true
            (lo.(0) = Some (qi (-3)))
        | P.Infeasible _ -> Alcotest.fail "unexpected infeasible");
    test "fixed variable substitutes through rows" (fun () ->
        let lo = [| Some (qi 3); None |] and hi = [| Some (qi 3); None |] in
        match
          run_exact ~n:2
            [
              {
                P.terms = [ (0, qi 1); (1, qi 1) ];
                lo = None;
                hi = Some (qi 5);
              };
            ]
            (lo, hi)
        with
        | P.Reduced { hi; rows; fixed; stats; _ } ->
          Alcotest.(check int) "fixed" 1 stats.P.vars_fixed;
          Alcotest.(check bool) "x0 pinned" true (fixed = [ (0, qi 3) ]);
          Alcotest.(check int) "row collapsed to x1 bound" 0
            (List.length rows);
          Alcotest.(check bool) "x1 <= 2" true (hi.(1) = Some (qi 2))
        | P.Infeasible _ -> Alcotest.fail "unexpected infeasible");
    test "proportional rows merge" (fun () ->
        match
          run_exact ~n:2
            [
              {
                P.terms = [ (0, qi 2); (1, qi 2) ];
                lo = None;
                hi = Some (qi 8);
              };
              { P.terms = [ (0, qi 1); (1, qi 1) ]; lo = Some (qi 1); hi = None };
            ]
            (no_bounds 2)
        with
        | P.Reduced { rows; stats; _ } ->
          Alcotest.(check int) "one row survives" 1 (List.length rows);
          Alcotest.(check int) "one eliminated" 1 stats.P.rows_eliminated;
          let r = List.hd rows in
          Alcotest.(check bool) "merged both sides" true
            (r.P.lo <> None && r.P.hi <> None)
        | P.Infeasible _ -> Alcotest.fail "unexpected infeasible");
    test "redundant row dropped by activity bounds" (fun () ->
        let lo = [| Some Q.zero; Some Q.zero |]
        and hi = [| Some (qi 1); Some (qi 1) |] in
        match
          run_exact ~n:2
            [
              {
                P.terms = [ (0, qi 1); (1, qi 1) ];
                lo = Some (qi (-5));
                hi = Some (qi 5);
              };
            ]
            (lo, hi)
        with
        | P.Reduced { rows; stats; _ } ->
          Alcotest.(check int) "dropped" 0 (List.length rows);
          Alcotest.(check int) "counted" 1 stats.P.rows_eliminated
        | P.Infeasible _ -> Alcotest.fail "unexpected infeasible");
    test "crossed variable box is infeasible" (fun () ->
        match
          run_exact ~n:1 [] ([| Some (qi 2) |], [| Some (qi 1) |])
        with
        | P.Infeasible _ -> ()
        | P.Reduced _ -> Alcotest.fail "should be infeasible");
    test "unreachable row bound is infeasible" (fun () ->
        let lo = [| Some Q.zero |] and hi = [| Some (qi 1) |] in
        match
          run_exact ~n:1
            [ { P.terms = [ (0, qi 1) ]; lo = Some (qi 5); hi = None } ]
            (lo, hi)
        with
        | P.Infeasible _ -> ()
        | P.Reduced _ -> Alcotest.fail "should be infeasible");
    test "violated empty row is infeasible" (fun () ->
        match
          run_exact ~n:1
            [ { P.terms = []; lo = Some (qi 1); hi = None } ]
            (no_bounds 1)
        with
        | P.Infeasible _ -> ()
        | P.Reduced _ -> Alcotest.fail "should be infeasible");
  ]

(* ---- presolve preserves the optimum ---- *)

(* tiny deterministic LCG so the transportation instances vary without a
   randomness dependency *)
let lcg seed =
  let s = ref seed in
  fun bound ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod bound

let solve_transport ~presolve costs caps demand =
  let t = Lp.create ~presolve () in
  let vars =
    List.map (fun cap -> Lp.add_var ~lo:Q.zero ~hi:(qi cap) t) caps
  in
  Lp.add_eq t (L.sum (List.map L.var vars)) (qi demand);
  let obj = L.sum (List.map2 (fun c v -> L.monomial (qi c) v) costs vars) in
  Lp.minimize t obj

let equivalence_tests =
  [
    test "transportation LPs: presolve on == off (exact)" (fun () ->
        let rand = lcg 42 in
        for _ = 1 to 60 do
          let n = 1 + rand 6 in
          let costs = List.init n (fun _ -> 1 + rand 50) in
          let caps = List.init n (fun _ -> 1 + rand 20) in
          let total = List.fold_left ( + ) 0 caps in
          let demand = rand (total + 1) in
          match
            ( solve_transport ~presolve:true costs caps demand,
              solve_transport ~presolve:false costs caps demand )
          with
          | Lp.Optimal a, Lp.Optimal b ->
            Alcotest.(check bool) "equal objective" true
              (Q.equal a.objective b.objective)
          | Lp.Infeasible, Lp.Infeasible -> ()
          | Lp.Unbounded, Lp.Unbounded -> ()
          | _ -> Alcotest.fail "status mismatch"
        done);
    test "infeasible demand detected identically" (fun () ->
        match
          ( solve_transport ~presolve:true [ 1; 2 ] [ 3; 4 ] 100,
            solve_transport ~presolve:false [ 1; 2 ] [ 3; 4 ] 100 )
        with
        | Lp.Infeasible, Lp.Infeasible -> ()
        | _ -> Alcotest.fail "both should be infeasible");
  ]

(* run one OPF solve with the given presolve default, restoring it *)
let with_exact_presolve flag f =
  let old = !Lp.presolve_default in
  Lp.presolve_default := flag;
  Fun.protect ~finally:(fun () -> Lp.presolve_default := old) f

let with_float_presolve flag f =
  let old = !Flp.presolve_default in
  Flp.presolve_default := flag;
  Fun.protect ~finally:(fun () -> Flp.presolve_default := old) f

let cost_of name = function
  | Opf.Dc_opf.Dispatch d -> d.Opf.Dc_opf.cost
  | Opf.Dc_opf.Infeasible -> Alcotest.fail (name ^ ": infeasible")
  | Opf.Dc_opf.Unbounded -> Alcotest.fail (name ^ ": unbounded")

let opf_equivalence_exact solve name spec =
  let topo = Grid.Topology.make spec.Grid.Spec.grid in
  let a = with_exact_presolve true (fun () -> cost_of name (solve topo)) in
  let b = with_exact_presolve false (fun () -> cost_of name (solve topo)) in
  Alcotest.(check bool)
    (name ^ ": identical exact optimum")
    true (Q.equal a b)

(* the certified path's stated LP on the exact simplex, presolve on and
   off: both equal the certified cost bit for bit *)
let stated_equivalence name spec =
  let topo = Grid.Topology.make spec.Grid.Spec.grid in
  let st =
    match Opf.Float_opf.state topo with
    | Some st -> st
    | None -> Alcotest.fail (name ^ ": no shift factors")
  in
  let exact () =
    match
      Certify.solve_exact st.Opf.Float_opf.problem st.Opf.Float_opf.objective
        ~constant:st.Opf.Float_opf.constant
    with
    | Certify.Optimal { objective; _ } -> objective
    | _ -> Alcotest.fail (name ^ ": exact solve found no optimum")
  in
  let a = with_exact_presolve true exact in
  let b = with_exact_presolve false exact in
  let c = cost_of name (Opf.Float_opf.solve_stated st) in
  Alcotest.(check bool) (name ^ ": identical exact optimum") true (Q.equal a b);
  Alcotest.(check bool) (name ^ ": certified = exact") true (Q.equal a c)

let opf_equivalence_float name spec =
  let topo = Grid.Topology.make spec.Grid.Spec.grid in
  let a =
    with_float_presolve true (fun () ->
        cost_of name (Opf.Float_opf.solve topo))
  in
  let b =
    with_float_presolve false (fun () ->
        cost_of name (Opf.Float_opf.solve topo))
  in
  let fa = Q.to_float a and fb = Q.to_float b in
  Alcotest.(check bool)
    (name ^ ": float optima agree")
    true
    (Float.abs (fa -. fb) <= 1e-4 *. (1.0 +. Float.abs fb))

let opf_tests =
  [
    test "dc-opf 5-bus: presolve preserves the optimum" (fun () ->
        opf_equivalence_exact Opf.Dc_opf.solve "dc5" (Grid.Test_systems.ieee 5));
    slow "dc-opf 14-bus: presolve preserves the optimum" (fun () ->
        opf_equivalence_exact Opf.Dc_opf.solve "dc14"
          (Grid.Test_systems.ieee14 ()));
    test "fast-opf 30-bus: presolve preserves the optimum" (fun () ->
        stated_equivalence "ptdf30" (Grid.Test_systems.ieee 30));
    slow "fast-opf 57-bus: presolve preserves the optimum" (fun () ->
        stated_equivalence "ptdf57" (Grid.Test_systems.ieee 57));
    test "certified cost = exact solve of the stated LP (5/14-bus)" (fun () ->
        stated_equivalence "ptdf5" (Grid.Test_systems.ieee 5);
        stated_equivalence "ptdf14" (Grid.Test_systems.ieee14 ()));
    test "float-opf 30/57/118-bus: presolve preserves the optimum" (fun () ->
        opf_equivalence_float "float30" (Grid.Test_systems.ieee 30);
        opf_equivalence_float "float57" (Grid.Test_systems.ieee 57);
        opf_equivalence_float "float118" (Grid.Test_systems.ieee 118));
  ]

(* ---- pivot savings, shown through the Obs counters ----

   Where presolve cuts simplex pivots depends on the formulation.  The
   exact angle-formulation OPF (Dc_opf) starts cold, so its slack-pinned
   angle triggers fixed-variable substitution and slack-adjacent capacity
   rows collapse to bounds: strictly fewer exact pivots (and a large
   wall-clock win — 30-bus drops from ~18s to ~7s).  The float
   angle-formulation below shows the same effect more dramatically.
   The warm-started PTDF path (Float_opf) keeps the same pivot
   count — presolve only removes rows the warm start already satisfies —
   which the 118-bus test pins down alongside the row-elimination
   counter. *)

let c_exact_pivots = Obs.Counter.make "lp.exact.pivots"
let c_float_pivots = Obs.Counter.make "lp.float.pivots"
let c_rows_elim = Obs.Counter.make "lp.presolve.rows_eliminated"

(* run f and return (result, counter delta) *)
let counting c f =
  let before = Obs.Counter.get c in
  let r = f () in
  (r, Obs.Counter.get c - before)

let dc_opf_pivot_reduction name spec =
  let topo = Grid.Topology.make spec.Grid.Spec.grid in
  let cost_plain, piv_plain =
    counting c_exact_pivots (fun () ->
        with_exact_presolve false (fun () ->
            cost_of name (Opf.Dc_opf.solve topo)))
  in
  let (cost_pre, piv_pre), rows_elim =
    counting c_rows_elim (fun () ->
        counting c_exact_pivots (fun () ->
            with_exact_presolve true (fun () ->
                cost_of name (Opf.Dc_opf.solve topo))))
  in
  Alcotest.(check bool) (name ^ ": identical optimum") true
    (Q.equal cost_plain cost_pre);
  Alcotest.(check bool) (name ^ ": presolve eliminated rows") true
    (rows_elim > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%s: strictly fewer exact pivots (%d < %d)" name piv_pre
       piv_plain)
    true (piv_pre < piv_plain)

(* float DC OPF over angles, cold-started: the nodal-balance rows are all
   violated at the origin, so presolve's substitutions and row merges
   change how much repair work phase I has to do *)
let float_theta_opf ~presolve spec =
  let g = spec.Grid.Spec.grid in
  let topo = Grid.Topology.make g in
  let slack = topo.Grid.Topology.slack in
  let t = Flp.create ~presolve () in
  let b = g.N.n_buses in
  let theta =
    Array.init b (fun j ->
        if j = slack then Flp.add_var ~lo:0.0 ~hi:0.0 t else Flp.add_var t)
  in
  let pg =
    Array.map
      (fun (gn : N.gen) ->
        Flp.add_var ~lo:(Q.to_float gn.N.pmin) ~hi:(Q.to_float gn.N.pmax) t)
      g.N.gens
  in
  Array.iteri
    (fun i (ln : N.line) ->
      if topo.Grid.Topology.mapped.(i) then begin
        let bi = Q.to_float ln.N.admittance in
        let flow = [ (theta.(ln.N.from_bus), bi); (theta.(ln.N.to_bus), -.bi) ] in
        let cap = Q.to_float ln.N.capacity in
        Flp.add_le t flow cap;
        Flp.add_ge t flow (-.cap)
      end)
    g.N.lines;
  (* the slack bus's balance row is linearly dependent on the others; use
     the total-balance row instead so the float equality system is not
     redundant *)
  let total_load = ref 0.0 in
  for j = 0 to b - 1 do
    let load =
      match N.load_at g j with Some ld -> Q.to_float ld.N.existing | None -> 0.0
    in
    total_load := !total_load +. load;
    if j <> slack then begin
      let terms = ref [] in
      Array.iteri
        (fun i (ln : N.line) ->
          if topo.Grid.Topology.mapped.(i) then begin
            let bi = Q.to_float ln.N.admittance in
            if ln.N.from_bus = j then
              terms := (theta.(j), bi) :: (theta.(ln.N.to_bus), -.bi) :: !terms
            else if ln.N.to_bus = j then
              terms := (theta.(j), bi) :: (theta.(ln.N.from_bus), -.bi) :: !terms
          end)
        g.N.lines;
      Array.iteri
        (fun k (gn : N.gen) ->
          if gn.N.gbus = j then terms := (pg.(k), -1.0) :: !terms)
        g.N.gens;
      Flp.add_eq t !terms (-.load)
    end
  done;
  Flp.add_eq t (Array.to_list (Array.map (fun v -> (v, 1.0)) pg)) !total_load;
  let obj =
    Array.to_list (Array.mapi (fun k v -> (v, Q.to_float g.N.gens.(k).N.beta)) pg)
  in
  match Flp.minimize t obj ~constant:0.0 with
  | Flp.Optimal { objective; _ } -> (objective, Flp.n_pivots t)
  | Flp.Infeasible -> Alcotest.fail "theta opf infeasible"
  | Flp.Unbounded -> Alcotest.fail "theta opf unbounded"
  | Flp.Stall _ -> Alcotest.fail "theta opf stalled"

let pivot_tests =
  [
    test "exact DC OPF 14-bus: presolve strictly reduces pivots" (fun () ->
        dc_opf_pivot_reduction "dc14" (Grid.Test_systems.ieee14 ()));
    slow "exact DC OPF 30-bus: presolve strictly reduces pivots" (fun () ->
        dc_opf_pivot_reduction "dc30" (Grid.Test_systems.ieee 30));
    slow "57-bus theta OPF: presolve strictly reduces float pivots" (fun () ->
        let spec = Grid.Test_systems.ieee 57 in
        let (obj_plain, piv_plain), obs_plain =
          counting c_float_pivots (fun () -> float_theta_opf ~presolve:false spec)
        in
        let (obj_pre, piv_pre), obs_pre =
          counting c_float_pivots (fun () -> float_theta_opf ~presolve:true spec)
        in
        (* the Obs counter agrees with the per-instance count *)
        Alcotest.(check int) "obs counts plain solve" piv_plain obs_plain;
        Alcotest.(check int) "obs counts presolved solve" piv_pre obs_pre;
        Alcotest.(check bool)
          (Printf.sprintf "strictly fewer pivots (%d < %d)" piv_pre piv_plain)
          true (piv_pre < piv_plain);
        Alcotest.(check bool) "same optimum" true
          (Float.abs (obj_pre -. obj_plain)
          <= 1e-4 *. (1.0 +. Float.abs obj_plain)));
    test "118-bus certified float OPF: exact presolve eliminates rows"
      (fun () ->
        (* Float_opf now routes through Certify, which always runs the
           exact presolve before the float simplex — the Flp presolve
           default no longer applies to it.  Pin down that the reduction
           still happens, that the float solve still runs, and that the
           verdict is certificate-backed. *)
        let topo =
          Grid.Topology.make (Grid.Test_systems.ieee 118).Grid.Spec.grid
        in
        let c_cert_ok = Obs.Counter.make "lp.certify.ok" in
        let ((cost, pivots), ok_delta), rows =
          counting c_rows_elim (fun () ->
              counting c_cert_ok (fun () ->
                  counting c_float_pivots (fun () ->
                      cost_of "f118" (Opf.Float_opf.solve topo))))
        in
        Alcotest.(check bool) "eliminates >100 duplicate rows" true
          (rows > 100);
        Alcotest.(check bool) "float simplex did the pivoting" true
          (pivots > 0);
        Alcotest.(check bool) "certificate validated" true (ok_delta >= 1);
        Alcotest.(check bool) "cost positive" true (Q.sign cost > 0));
  ]

let () =
  Alcotest.run "analysis"
    [
      ("grid-lint", grid_lint_tests);
      ("form-lint", form_lint_tests);
      ("form-lint-derived", derived_bound_tests);
      ("audit", audit_tests);
      ("presolve-rules", presolve_rule_tests);
      ("presolve-equivalence", equivalence_tests);
      ("opf-equivalence", opf_tests);
      ("pivot-savings", pivot_tests);
    ]
