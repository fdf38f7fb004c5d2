(** Canonical serialisation and stable content hashing of scenarios.

    A store key must identify the {e semantic} scenario, not the accident
    of row order inside a [.grid] file: permuting the topology rows
    (together with their forward/backward flow-measurement rows, which are
    indexed by line), the generator rows or the load rows describes the
    same network, so it must hash to the same key — while changing any
    single field (an admittance, a flag, a budget) must change the key.

    The canonical form therefore sorts each section into a content-defined
    order before hashing: every line travels with its two flow
    measurements as one record; bus-injection measurements stay in bus
    order; generators and loads sort by their (unique-per-bus) records.
    Rationals are serialised exactly ([num/den]), never through floats.

    Hashes are 128 bits of FNV-1a (two independent 64-bit passes),
    rendered as 32 hex digits.  The canonical byte string is versioned
    ([v1]) so any format change invalidates old journals naturally. *)

val fingerprint : string -> string
(** 32-hex-digit stable hash of an arbitrary byte string. *)

val point : string -> int
(** Position of an arbitrary key on the consistent-hash ring: the first
    FNV-1a pass of {!fingerprint} masked to a non-negative int (uniform
    over [[0, max_int]]).  The hash ring, the fleet coordinator, and the
    shard-side [sync] key-range filter all agree on placement because
    they all derive points through this one function. *)

val of_network : Grid.Network.t -> string
(** Canonical byte serialisation of the grid alone (topology, flow and
    injection measurements, generators, loads) — reordering-invariant. *)

val of_spec : Grid.Spec.t -> string
(** {!of_network} plus the scenario scalars: attacker budgets and the
    cost-constraint pair (reference, target increase). *)

val key : params:(string * string) list -> Grid.Spec.t -> string
(** Store key for a whole job: hash of {!of_spec} and the name-sorted
    [params] (mode, base, increase, ... — caller-defined strings). *)

val verify_key :
  mapped:bool array ->
  loads:Numeric.Rat.t array ->
  Grid.Network.t ->
  string
(** Store key for one OPF verification inside the impact loop: a
    canonical serialisation of the {e poisoned instance}.  Each line
    record carries its own [mapped] bit (indexed by the grid's line
    order) through the content sort, so the key is invariant under
    file-row permutation yet names the physical poisoned topology — the
    same bitstring over a row-permuted file hashes differently, because
    it denotes a different set of physical lines.  [loads] are the
    per-bus shifted loads the operator will see.  Only OPF-relevant
    content participates (bus count, line electrical parameters, the
    mapped bits, generators, loads): attacker metadata cannot change the
    poisoned optimum, so it does not split entries.  Thresholds are
    deliberately excluded — the poisoned optimum is
    threshold-independent, so sweeps over the impact target [I] share
    these entries.  The key's version tag ([topoguard-verify v3]) names
    the one OPF formulation that fills these entries, the certified
    shift-factor solve: journals written when an angle-formulation
    verdict could land under the same key miss instead of answering. *)

val ordering : Grid.Network.t -> string
(** Fingerprint of the {e non-canonical} row ordering: the line,
    generator and load records in exactly the sequence the grid stores
    them.  Two grids agree iff they hold the same records in the same
    order, so folding this into a job key makes row-permuted copies of a
    file miss instead of hit — required whenever the cached value embeds
    row indices (attack vectors number lines by file row). *)
