(** The impact-analysis framework of paper Fig. 2 / Section III-A.

    Pipeline: compute the attack-free OPF optimum [T*]; set the threshold
    [T_OPF = T* (1 + I/100)]; repeatedly ask the attack model for a stealthy
    candidate vector; apply it (poisoned topology + shifted loads); verify
    the impact on the operator's OPF — the attack succeeds when no dispatch
    cheaper than the threshold exists (Eq. 37) while the OPF still
    converges for unconstrained budgets (Eq. 38).  Rejected candidates are
    blocked at a 2-decimal-digit discretisation (Section IV-A idea 1) and
    the search continues.

    Every OPF here — the attack-free optimum and each poisoned one — is
    {!Opf.Float_opf.solve}: the shift-factor formulation (Section IV-A,
    idea 2) on the certified float LP, exact for its stated problem at
    every system size.  The exact angle LP ({!Opf.Dc_opf}) and the SMT
    bounded-cost model ({!Opf.Smt_opf}) serve as test oracles. *)

type opf_backend =
  | Fast_factors
      (** the certified shift-factor OPF — the only one; the type stays
          so existing configs keep compiling *)

exception Interrupted
(** Raised from inside {!analyze} / {!analyze_sweep} /
    {!max_achievable_increase} when {!config.interrupt} reports true —
    the cooperative cancellation/timeout mechanism of the scenario
    service.  Never raised when [config.interrupt = None]. *)

type config = {
  mode : Attack.Encoder.mode;
  precision : int;  (** blocking-clause discretisation digits *)
  max_candidates : int;
      (** enumeration budget, honored on both paths: the SMT loop stops
          after this many queries, and the closed-form path verifies at
          most this long a prefix of the ranked single-line candidate
          list *)
  backend : opf_backend;
  max_topology_changes : int option;
      (** cap on simultaneous line exclusions/inclusions; the paper uses 1
          for the 57/118-bus evaluation (Section IV-A) *)
  use_closed_form : bool;
      (** enumerate single-line candidates with {!Attack.Single_line}
          instead of the SMT model (requires [Topology_only] and
          [max_topology_changes = Some 1]); the deterministic counterpart
          of the paper's LODF shortcut *)
  jobs : int;
      (** parallelism of candidate verification on the closed-form path
          (default 1 = sequential).  The verifications run on a
          {!Pool.t}; the outcome — and the poisoned cost, when an attack
          is found — is identical to the sequential run because the
          lowest-index success wins ({!Pool.find_mapi_first}).  Only the
          reported [candidates] count may be higher, since workers past
          the winner may already have started.  The SMT enumeration loop
          is inherently sequential (each candidate's blocking clause
          feeds the next query) and ignores this field. *)
  interrupt : (unit -> bool) option;
      (** probed between solver iterations and candidate verifications;
          returning [true] aborts the analysis by raising {!Interrupted}.
          The probe may be called from pool worker domains on the
          closed-form path, so it must be domain-safe (read an [Atomic],
          compare against a deadline clock). *)
  store : Store.Cache.t option;
      (** content-addressed store for per-candidate OPF verifications.
          The poisoned optimum is threshold-independent, so entries are
          keyed by a canonical serialisation of the poisoned instance
          (each line's electrical parameters with its mapped bit,
          generators, per-bus shifted loads — see
          {!Store.Canonical.verify_key}) and are shared between
          scenarios that differ only in the impact target [I] — and,
          through the store's journal, across process restarts.  The key
          names the physical topology, not a row-indexed bitstring, so
          row-permuted copies of a [.grid] file share entries
          soundly. *)
  audit : bool;
      (** solver-free static pre-pass on the closed-form path (default
          true): before any verification, {!Audit.classify} prunes
          candidates that provably cannot succeed — bridge exclusions
          (statically islanding) and candidates
          whose poisoned optimum is provably at or below the base cost
          while the threshold is strictly above it; a threshold above
          the exact dispatch-cost ceiling prunes everything.  The
          outcome, winning vector and poisoned cost are identical with
          the audit on or off — only the number of OPF solves drops
          (counters [audit.pruned], [audit.pruned.islanding],
          [audit.pruned.interval], [audit.pruned.ceiling]; bumped per
          solve actually avoided).  Pruned candidates still count as
          examined, with the same caveat as [jobs]: when an attack is
          found, prunes past the winner may already be counted.  The
          SMT enumeration path is model-driven and ignores this
          field. *)
  audit_cross_check : bool;
      (** solve every statically pruned candidate anyway and assert the
          prune verdict against the solver's: a pruned candidate that verifies as a success bumps
          [audit.prune.unsound].  Costs what the un-audited run costs;
          meant for CI parity gates, default false. *)
}

val default_config : config

type success = {
  vector : Attack.Vector.t;
  base_cost : Numeric.Rat.t;  (** attack-free OPF optimum [T*] *)
  threshold : Numeric.Rat.t;  (** [T_OPF] *)
  poisoned_cost : Numeric.Rat.t option;
      (** exact poisoned optimum; always [Some] *)
  candidates : int;
      (** attack vectors examined; with [jobs >= 2] this counts every
          verification actually started, which can exceed the sequential
          count (see {!config.jobs}) *)
}

type outcome =
  | Attack_found of success
  | No_attack of { candidates : int }
  | Base_infeasible of string

val analyze :
  ?config:config ->
  scenario:Grid.Spec.t ->
  base:Attack.Base_state.t ->
  unit ->
  outcome

val analyze_sweep :
  ?config:config ->
  scenario:Grid.Spec.t ->
  base:Attack.Base_state.t ->
  increases:Numeric.Rat.t list ->
  unit ->
  (Numeric.Rat.t * outcome) list
(** Run {!analyze} against several impact targets [I] (percent values
    overriding [scenario.min_increase_pct]), sharing every
    threshold-independent computation instead of restarting from scratch
    per target:

    - the attack-free OPF (and thus [T*]) is solved once;
    - on the closed-form path the single-line candidates are enumerated
      once, and each candidate's poisoned optimum is solved at most once
      and compared against every threshold (reuse is visible as
      [attack.sweep.reused_verifications] and as flat
      [attack.loop.iterations] in [--stats]);
    - on the SMT path one solver and one encoding serve all targets:
      thresholds are processed in ascending order, which keeps
      accumulated blocking clauses sound (a candidate blocked at
      threshold [T] has a poisoned optimum below [T], hence below any
      larger threshold).

    Results are returned in the input order of [increases].  On the
    closed-form path, and on the SMT path whenever [max_candidates] does
    not truncate the enumeration, outcomes are identical to running
    {!analyze} per target.  When the SMT budget {e is} exhausted the
    sweep can diverge from fresh per-target runs: the shared solver's
    accumulated blocking clauses change which candidates each target's
    [max_candidates] budget examines (the clauses themselves stay sound
    — only the cut-off point of a truncated search moves). *)

val max_achievable_increase :
  ?config:config ->
  scenario:Grid.Spec.t ->
  base:Attack.Base_state.t ->
  unit ->
  Numeric.Rat.t option
(** Largest percentage increase any stealthy attack can force (the "cannot
    increase the cost more than 8%" bound of Case Study 2): max over
    candidate vectors of the poisoned optimum, expressed as percent above
    [T*].  [None] when no stealthy attack converges. *)
