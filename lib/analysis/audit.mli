(** Solver-free attack-surface audit over a parsed scenario.

    Four static passes, each emitting {!Analysis.Diagnostic.t} values —
    no LP/SMT solve is ever issued:

    + {b graph structure} ({!Structure}): one DFS over the mapped
      topology finds bridges, articulation points, radial chains and
      2-edge-connected components.  A bridge exclusion is statically an
      islanding attack: the poisoned shift-factor OPF can
      never converge, so {!classify} prunes it without a solve.
    + {b interval impact bounds}: exact-rational dispatch-cost range
      [[cost_floor, cost_ceiling]] of the scenario's demand over the
      generator boxes (single-line attacks preserve total apparent load,
      so no poisoned optimum can exceed {!cost_ceiling}), plus a
      per-candidate PTDF/LODF feasibility check of the base dispatch on
      the poisoned instance ({!classify}): when the attack-free dispatch
      still fits every line capacity with margin, the poisoned optimum
      is at most the base cost and the candidate is provably below any
      threshold strictly above it.
    + {b measurement criticality}: {!Estimation.Criticality} flags
      measurements whose loss breaks observability — bad data on them is
      undetectable, the stealthy attack surface — and lines carrying no
      taken flow measurement at all.
    + the {b formula pass} lives in {!Analysis.Form_lint} (interval
      propagation with minimal-tag-set conflict explanations) and is
      surfaced through [--check-model], not here.

    The prune verdicts of {!classify} feed [Impact.analyze] /
    [analyze_sweep]; the diagnostics feed [topoguard audit].  Soundness
    arguments are spelled out in docs/analysis.md. *)

module Structure : sig
  type t = {
    bridge : bool array;
        (** per line; a mapped line whose removal disconnects its
            component.  Parallel circuits are handled (neither of two
            lines joining the same buses is a bridge). *)
    articulation : bool array;
        (** per bus; removal increases the component count *)
    radial : bool array;
        (** per line; part of a leaf-peelable (tree-pendant) chain.
            Every radial line is a bridge, not conversely. *)
    components : int;  (** connected components of the mapped graph *)
    two_edge_components : int;
        (** components remaining once every bridge is cut *)
  }

  val analyze : Grid.Topology.t -> t
  (** One DFS (Tarjan low-links) plus a leaf-peeling sweep; ignores
      unmapped lines; self-loops never count as bridges. *)
end

val cost_floor : Grid.Network.t -> Numeric.Rat.t option
(** Exact minimum of [sum (alpha_g + beta_g p_g)] subject to
    [sum p_g = total existing load] and the generator boxes (greedy on
    [beta]); [None] when the demand is outside [[sum pmin, sum pmax]].
    A lower bound on the attack-free optimum [T*] that needs no solve
    (capacity constraints only tighten the LP upward). *)

val cost_ceiling : Grid.Network.t -> Numeric.Rat.t option
(** Exact maximum of the same box-and-balance relaxation: no dispatch of
    the given total demand — on any topology, any apparent load shift
    preserving the total — can cost more.  [None] as for
    {!cost_floor}. *)

type static_verdict =
  | Solve  (** not statically decidable — verify with the solver *)
  | Prune_islanding
      (** excluding this bridge islands the grid; the poisoned
          shift-factor OPF cannot converge (statically [Islanding]) *)
  | Prune_interval
      (** the base dispatch remains feasible on the poisoned instance,
          so the poisoned optimum is at most the base cost — below any
          strictly-higher threshold *)

val classify :
  grid:Grid.Network.t ->
  base_dispatch:Numeric.Rat.t array ->
  islanding_sound:bool ->
  interval_active:bool ->
  candidates:(int * [ `Exclude | `Include ] * Attack.Vector.t) list ->
  static_verdict list
(** Static verdict per single-line candidate, in order.  [base_dispatch]
    is the attack-free OPF generation (per [grid.gens] index).
    [islanding_sound] must be true only when the verifying OPF treats
    islanded topologies as non-convergent, as the production
    shift-factor OPF does (the exact angle formulation can stay
    feasible per-island).
    [interval_active] must be true only when the success threshold is
    strictly above the base cost.  Inclusions are never pruned.  The
    interval check recomputes base flows from PTDFs (never trusting a
    backend's flow vector) and keeps a conservative margin covering the
    certified backend's 1e-6 PTDF rounding; any numerically doubtful
    LODF falls back to [Solve]. *)

val run : Grid.Spec.t -> Analysis.Diagnostic.t list
(** All solver-free passes over a validated scenario, for the CLI:
    structure ([bridge-line], [articulation-bus], [radial-chain],
    [graph-structure]), interval bounds ([impact-ceiling],
    [statically-safe]), and criticality ([unobservable-system],
    [critical-measurement], [unmonitored-line-flow]).  Returns
    diagnostics in {!Analysis.Diagnostic.sorted} order.  Counters:
    [audit.runs], [audit.bridges], [audit.critical_measurements]. *)
