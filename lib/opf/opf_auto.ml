(* The benchmark harness compiles against this name, so it stays as a
   plain alias of the one production OPF. *)
let solve_factors = Float_opf.solve
