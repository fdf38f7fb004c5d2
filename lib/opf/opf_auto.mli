(** Kept for callers compiled against the old name. *)

val solve_factors :
  ?loads:Numeric.Rat.t array -> Grid.Topology.t -> Dc_opf.outcome
(** {!Float_opf.solve}. *)
