(** The production DC-OPF: the shift-factor formulation (paper Section
    IV-A) on the certified float LP ({!Certify}).

    The LP is posed over exact rationals — float PTDFs rounded to 1e-6
    steps — solved by the float simplex, and the verdict is proved or
    repaired exactly, so the reported cost and dispatch are exact optima
    of the stated problem at every system size.  Building the stated LP
    ({!state}) and solving it ({!solve_stated}) are separate steps, so a
    test can hand the very same problem to {!Certify.solve_exact}. *)

type stated = {
  problem : Certify.t;
  objective : (int * Numeric.Rat.t) list;
  constant : Numeric.Rat.t;  (** the generators' fixed costs *)
  pg : int array;  (** LP variable per generator (index into [grid.gens]) *)
  topo : Grid.Topology.t;
  loads : Numeric.Rat.t array;  (** per bus *)
}
(** The stated LP: minimize [objective . x + constant] over [problem]. *)

val state : ?loads:Numeric.Rat.t array -> Grid.Topology.t -> stated option
(** [loads] is a per-bus vector and defaults to the grid's existing
    loads.  [None] when the mapped topology has no shift factors (an
    islanded system): the OPF cannot converge. *)

val solve_stated : stated -> Dc_opf.outcome
(** Certified minimization of the stated LP; angles and flows come from
    a float power flow at the exact optimum. *)

val solve : ?loads:Numeric.Rat.t array -> Grid.Topology.t -> Dc_opf.outcome
(** [state] then [solve_stated]; an islanded topology is [Infeasible].
    Same interface as {!Dc_opf.solve}, whose angle formulation agrees up
    to the PTDF rounding (see docs/certification.md). *)
