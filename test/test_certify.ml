(* Tests for the certified float LP backend (Lp.Certify): random bounded
   LPs where the certified optimum must equal the exact simplex optimum,
   adversarial cases (degenerate bases, near-ties below the float solver's
   epsilon, a hand-corrupted certificate that must be rejected into the
   exact fallback), OPF cost agreement of the certified PTDF OPF with the
   exact solve of its own stated LP and with the exact angle LP, and
   verify-cache reuse across impact targets. *)

module Q = Numeric.Rat
module B = Numeric.Bigint
module T = Grid.Topology
module TS = Grid.Test_systems
module I = Topoguard.Impact

let qc = Alcotest.testable Q.pp Q.equal

let c_ok = Obs.Counter.make "lp.certify.ok"
let c_fail = Obs.Counter.make "lp.certify.fail"
let c_fallback = Obs.Counter.make "lp.certify.fallback"

(* counters count unconditionally, so tests can diff them *)
let counting c f =
  let before = Obs.Counter.get c in
  let r = f () in
  (r, Obs.Counter.get c - before)

let prop ?(count = 300) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* ---- random bounded LPs: certified == exact ---- *)

type spec = {
  n : int;
  bounds : (Q.t option * Q.t option) array;
  rows : (int array * Q.t * Q.t * int) list;
  obj : int array;
}

let gen_spec =
  QCheck2.Gen.(
    let qsmall =
      map
        (fun (a, b) -> Q.of_ints a b)
        (pair (int_range (-8) 8) (int_range 1 4))
    in
    let bound =
      let* which = int_range 0 9 in
      let* a = qsmall in
      let* b = qsmall in
      let lo = Q.min a b and hi = Q.max a b in
      return
        (if which <= 6 then (Some lo, Some hi)
         else if which = 7 then (Some lo, None)
         else if which = 8 then (None, Some hi)
         else (None, None))
    in
    let* n = int_range 1 6 in
    let* m = int_range 0 6 in
    let* bounds = array_size (return n) bound in
    let* rows =
      list_size (return m)
        (let* coeffs = array_size (return n) (int_range (-3) 3) in
         let* a = qsmall in
         let* b = qsmall in
         let* kind = int_range 0 2 in
         return (coeffs, Q.min a b, Q.max a b, kind))
    in
    let* obj = array_size (return n) (int_range (-4) 4) in
    return { n; bounds; rows; obj })

let build { n; bounds; rows; obj } =
  let t = Certify.create () in
  let vars =
    Array.init n (fun i ->
        let lo, hi = bounds.(i) in
        Certify.add_var ?lo ?hi t)
  in
  List.iter
    (fun (coeffs, rlo, rhi, kind) ->
      let terms =
        Array.to_list (Array.mapi (fun i c -> (vars.(i), Q.of_int c)) coeffs)
      in
      match kind with
      | 0 -> Certify.add_le t terms rhi
      | 1 -> Certify.add_ge t terms rlo
      | _ -> Certify.add_eq t terms rlo)
    rows;
  let o = Array.to_list (Array.mapi (fun i c -> (vars.(i), Q.of_int c)) obj) in
  (t, o)

let same_outcome a b =
  match (a, b) with
  | Certify.Optimal { objective = x; _ }, Certify.Optimal { objective = y; _ }
    ->
    Q.equal x y
  | Certify.Infeasible, Certify.Infeasible -> true
  | Certify.Unbounded, Certify.Unbounded -> true
  | _ -> false

let objective_exn name = function
  | Certify.Optimal { objective; _ } -> objective
  | Certify.Infeasible -> Alcotest.fail (name ^ ": unexpected infeasible")
  | Certify.Unbounded -> Alcotest.fail (name ^ ": unexpected unbounded")

let random_tests =
  [
    prop "certified outcome equals the exact simplex" gen_spec (fun spec ->
        let t, o = build spec in
        same_outcome
          (Certify.minimize t o ~constant:Q.zero)
          (Certify.solve_exact t o ~constant:Q.zero));
    prop ~count:150 "optimal values satisfy every recorded row" gen_spec
      (fun spec ->
        let t, o = build spec in
        match Certify.minimize t o ~constant:Q.zero with
        | Certify.Infeasible | Certify.Unbounded -> true
        | Certify.Optimal { values; _ } ->
          let sat (coeffs, rlo, rhi, kind) =
            let a =
              Array.to_seq coeffs
              |> Seq.fold_lefti
                   (fun acc i c -> Q.add acc (Q.mul (Q.of_int c) values.(i)))
                   Q.zero
            in
            match kind with
            | 0 -> Q.( <= ) a rhi
            | 1 -> Q.( >= ) a rlo
            | _ -> Q.equal a rlo
          in
          Array.for_all
            (fun ok -> ok)
            (Array.of_list (List.map sat spec.rows)));
  ]

(* ---- adversarial cases ---- *)

let adversarial_tests =
  [
    Alcotest.test_case "degenerate optimum is certified exactly" `Quick
      (fun () ->
        (* the binding row is duplicated, so the optimal basis is
           degenerate and multiple bases describe the same vertex *)
        let t = Certify.create () in
        let x = Certify.add_var ~lo:Q.zero ~hi:Q.one t in
        let y = Certify.add_var ~lo:Q.zero ~hi:Q.one t in
        Certify.add_ge t [ (x, Q.one); (y, Q.one) ] Q.one;
        Certify.add_ge t [ (x, Q.one); (y, Q.one) ] Q.one;
        let o = [ (x, Q.one); (y, Q.one) ] in
        Alcotest.check qc "cost 1" Q.one
          (objective_exn "degenerate" (Certify.minimize t o ~constant:Q.zero)));
    Alcotest.test_case "near-tie below the float epsilon stays exact" `Quick
      (fun () ->
        (* min x + (1 + 1e-12) y over x + y >= 1 in the unit box: the
           cost gap is far below Flp's pivoting epsilon (1e-9), so the
           float solver may stop at either vertex; the exact check must
           catch the wrong one and the final answer must be exactly 1 *)
        let eps12 = Q.make B.one (B.pow10 12) in
        let t = Certify.create () in
        let x = Certify.add_var ~lo:Q.zero ~hi:Q.one t in
        let y = Certify.add_var ~lo:Q.zero ~hi:Q.one t in
        Certify.add_ge t [ (x, Q.one); (y, Q.one) ] Q.one;
        let o = [ (x, Q.one); (y, Q.add Q.one eps12) ] in
        let certified = objective_exn "near-tie" (Certify.minimize t o ~constant:Q.zero) in
        let exact = objective_exn "near-tie exact" (Certify.solve_exact t o ~constant:Q.zero) in
        Alcotest.check qc "tie broken exactly" exact certified;
        Alcotest.check qc "weight on the cheap variable" Q.one certified);
    Alcotest.test_case "corrupted certificate falls back, cost unchanged"
      `Quick (fun () ->
        let mk () =
          let t = Certify.create () in
          let x = Certify.add_var ~lo:Q.zero ~hi:(Q.of_int 10) t in
          let y = Certify.add_var ~lo:Q.zero ~hi:(Q.of_int 3) t in
          Certify.add_le t [ (x, Q.one); (y, Q.one) ] (Q.of_int 5);
          (t, [ (x, Q.one); (y, Q.of_ints 1 100) ])
        in
        let t1, o1 = mk () in
        let clean, ok_d =
          counting c_ok (fun () -> Certify.minimize t1 o1 ~constant:Q.zero)
        in
        Alcotest.(check int) "clean solve certifies" 1 ok_d;
        (* flip the first nonbasic-at-bound status to the other bound:
           the claimed point moves off the optimum, so the exact check
           must reject it *)
        let mangle (cert : Flp.certificate) =
          let statuses = Array.copy cert.Flp.statuses in
          let flipped = ref false in
          Array.iteri
            (fun i s ->
              if not !flipped then
                match s with
                | Flp.At_lower ->
                  statuses.(i) <- Flp.At_upper;
                  flipped := true
                | Flp.At_upper ->
                  statuses.(i) <- Flp.At_lower;
                  flipped := true
                | Flp.Basic | Flp.Between _ -> ())
            statuses;
          { Flp.statuses }
        in
        let t2, o2 = mk () in
        let (mangled, fail_d), fallback_d =
          counting c_fallback (fun () ->
              counting c_fail (fun () ->
                  Certify.minimize ~mangle_cert:mangle t2 o2
                    ~constant:Q.zero))
        in
        Alcotest.(check int) "certificate rejected" 1 fail_d;
        Alcotest.(check int) "exact fallback ran" 1 fallback_d;
        match (clean, mangled) with
        | ( Certify.Optimal { objective = a; certified = ca; _ },
            Certify.Optimal { objective = b; certified = cb; _ } ) ->
          Alcotest.check qc "final cost unchanged" a b;
          Alcotest.(check bool) "clean path certified" true ca;
          Alcotest.(check bool) "mangled path fell back" false cb
        | _ -> Alcotest.fail "expected optima on both paths");
  ]

(* ---- OPF agreement: the certified PTDF OPF vs its oracles ----

   Against the exact simplex on the very LP the certified path states
   (Float_opf.state), costs are bit-equal.  Against the exact angle
   formulation (Dc_opf) the residual gap is formulation, not solver
   error: Float_opf's PTDF coefficients come from a float factorization
   rounded to 1e-6 steps.  That gap stays within the relative
   formulation tolerance of docs/certification.md. *)

let certified name topo =
  let outcome, ok_d = counting c_ok (fun () -> Opf.Float_opf.solve topo) in
  Alcotest.(check bool) (name ^ ": solve certified") true (ok_d >= 1);
  match outcome with
  | Opf.Dc_opf.Dispatch d -> d.Opf.Dc_opf.cost
  | _ -> Alcotest.fail (name ^ ": certified float OPF found no dispatch")

(* the certified path's own stated LP on the exact simplex only *)
let stated_exact name topo =
  match Opf.Float_opf.state topo with
  | None -> Alcotest.fail (name ^ ": no shift factors")
  | Some st -> (
    match
      Certify.solve_exact st.Opf.Float_opf.problem st.Opf.Float_opf.objective
        ~constant:st.Opf.Float_opf.constant
    with
    | Certify.Optimal { objective; _ } -> objective
    | _ -> Alcotest.fail (name ^ ": exact solve found no optimum"))

let rel_close a b = Float.abs (a -. b) <= 1e-5 *. Float.abs b

let equals_stated_exact n () =
  let name = string_of_int n in
  let topo = T.make (TS.ieee n).Grid.Spec.grid in
  Alcotest.check qc (name ^ ": bit-equal cost") (stated_exact name topo)
    (certified name topo)

let opf_tests =
  [
    Alcotest.test_case "IEEE-14: agrees with the exact angle LP" `Quick
      (fun () ->
        let grid = (TS.ieee 14).Grid.Spec.grid in
        let c = Q.to_float (certified "14" (T.make grid)) in
        let e =
          match Opf.Dc_opf.base_case grid with
          | Opf.Dc_opf.Dispatch d -> Q.to_float d.Opf.Dc_opf.cost
          | _ -> Alcotest.fail "14: angle LP found no dispatch"
        in
        Alcotest.(check bool) "costs agree (relative)" true (rel_close c e));
    Alcotest.test_case "IEEE-5/14: equals the exact solve of the stated LP"
      `Quick (fun () ->
        equals_stated_exact 5 ();
        equals_stated_exact 14 ());
    Alcotest.test_case "IEEE-30: agrees with the exact PTDF LP" `Quick
      (equals_stated_exact 30);
    Alcotest.test_case "IEEE-57: agrees with the exact PTDF LP" `Quick
      (equals_stated_exact 57);
  ]

(* ---- verify-cache reuse across impact targets ---- *)

let store_tests =
  [
    Alcotest.test_case "certified results fill exact verify: entries" `Quick
      (fun () ->
        let cache =
          match Store.Cache.create ~max_bytes:(1 lsl 20) () with
          | Ok c -> c
          | Error e -> Alcotest.fail e
        in
        let scenario = TS.ieee 5 in
        let base =
          match
            Attack.Base_state.of_dispatch scenario.Grid.Spec.grid
              ~gen:(TS.case_study_base_dispatch ())
          with
          | Ok b -> b
          | Error e -> Alcotest.fail e
        in
        let run ?store pct =
          let scenario =
            { scenario with Grid.Spec.min_increase_pct = Q.of_int pct }
          in
          let config = { I.default_config with I.store } in
          match I.analyze ~config ~scenario ~base () with
          | I.Attack_found s -> s
          | I.No_attack _ -> Alcotest.failf "expected an attack at %d%%" pct
          | I.Base_infeasible e -> Alcotest.fail ("base infeasible: " ^ e)
        in
        (* a 1% job fills the store with certified verdicts... *)
        let _, ok_d = counting c_ok (fun () -> run ~store:cache 1) in
        Alcotest.(check bool) "certified solves ran" true (ok_d >= 1);
        let filled = Store.Cache.length cache in
        Alcotest.(check bool) "store populated" true (filled > 0);
        (* ...which a 2% job on the same store reuses, answering exactly
           what a fresh 2% job answers *)
        let warm = run ~store:cache 2 in
        Alcotest.(check int) "no new store entries" filled
          (Store.Cache.length cache);
        let fresh = run 2 in
        Alcotest.(check (option qc)) "cached poisoned cost = fresh"
          fresh.I.poisoned_cost warm.I.poisoned_cost;
        Alcotest.check qc "same base cost" fresh.I.base_cost warm.I.base_cost;
        Store.Cache.close cache);
  ]

let () =
  Alcotest.run "certify"
    [
      ("random", random_tests);
      ("adversarial", adversarial_tests);
      ("opf", opf_tests);
      ("store", store_tests);
    ]
