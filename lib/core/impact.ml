module Q = Numeric.Rat
module L = Smt.Linexp
module F = Smt.Form
module Solver = Smt.Solver
module N = Grid.Network

type opf_backend = Fast_factors

exception Interrupted

let obs_iterations = Obs.Counter.make "attack.loop.iterations"
let obs_candidates = Obs.Counter.make "attack.loop.candidates"
let obs_blocked = Obs.Counter.make "attack.loop.blocked"
let obs_loop_timer = Obs.Timer.make "attack.loop.analyze"
let obs_verify_hist = Obs.Histogram.make "attack.verify.seconds"
let obs_sweep_reused = Obs.Counter.make "attack.sweep.reused_verifications"
let obs_sweep_targets = Obs.Counter.make "attack.sweep.targets"
let obs_audit_pruned = Obs.Counter.make "audit.pruned"
let obs_audit_pruned_islanding = Obs.Counter.make "audit.pruned.islanding"
let obs_audit_pruned_interval = Obs.Counter.make "audit.pruned.interval"
let obs_audit_pruned_ceiling = Obs.Counter.make "audit.pruned.ceiling"
let obs_audit_unsound = Obs.Counter.make "audit.prune.unsound"

type config = {
  mode : Attack.Encoder.mode;
  precision : int;
  max_candidates : int;
  backend : opf_backend;
  max_topology_changes : int option;
  use_closed_form : bool;
      (* enumerate single-line vectors with Attack.Single_line instead of
         the SMT model; only applies to Topology_only with
         max_topology_changes = Some 1 *)
  jobs : int;
      (* verification parallelism for the closed-form path; <= 1 is
         sequential, 0 would also be sequential (use Pool.default_jobs ()
         explicitly for the machine's recommended width) *)
  interrupt : (unit -> bool) option;
      (* cooperative cancellation/timeout probe, checked between solver
         iterations and candidate verifications *)
  store : Store.Cache.t option;
      (* content-addressed cache for the per-candidate OPF verifications *)
  audit : bool;
      (* solver-free static pre-pass on the closed-form path: bridge
         exclusions and candidates whose poisoned optimum provably stays
         below the threshold are pruned before any OPF solve *)
  audit_cross_check : bool;
      (* solve statically pruned candidates anyway and assert the prune
         was right (counter audit.prune.unsound); for soundness testing *)
}

let default_config =
  {
    mode = Attack.Encoder.Topology_only;
    precision = 2;
    max_candidates = 200;
    backend = Fast_factors;
    max_topology_changes = None;
    use_closed_form = false;
    jobs = 1;
    interrupt = None;
    store = None;
    audit = true;
    audit_cross_check = false;
  }

type success = {
  vector : Attack.Vector.t;
  base_cost : Q.t;
  threshold : Q.t;
  poisoned_cost : Q.t option;
  candidates : int;
}

type outcome =
  | Attack_found of success
  | No_attack of { candidates : int }
  | Base_infeasible of string

let check_interrupt config =
  match config.interrupt with
  | Some probe -> if probe () then raise Interrupted
  | None -> ()

(* Installs the interrupt hook as this domain's solver probe for the
   duration of an analysis: simplex pivot loops and sparse LU steps call
   [Obs.Probe.poll], so a cooperative cancel lands inside a long solve
   (e.g. the exact base OPF of a large case) rather than after it. *)
let with_interrupt_probe config body =
  match config.interrupt with
  | None -> body ()
  | Some _ -> Obs.Probe.with_ (fun () -> check_interrupt config) body

let threshold_of ~base_cost pct =
  Q.mul base_cost (Q.add Q.one (Q.div pct (Q.of_int 100)))

(* ---- verification store (partial reuse across scenarios) ----

   The poisoned optimum depends only on the grid, the mapped topology and
   the shifted loads — not on the threshold — so a verification can be
   answered from the store and compared against any threshold. *)

(* "cost <num[/den]>" | "noconv" *)
let encode_verdict = function
  | `Cost c -> "cost " ^ Q.to_string c
  | `NoConv -> "noconv"

let decode_verdict s =
  if s = "noconv" then Some `NoConv
  else
    match String.split_on_char ' ' s with
    | [ "cost"; q ] -> (
      match String.split_on_char '/' q with
      | [ n ] -> (
        match Numeric.Bigint.of_string n with
        | n -> Some (`Cost (Q.make n Numeric.Bigint.one))
        | exception _ -> None)
      | [ n; d ] -> (
        match (Numeric.Bigint.of_string n, Numeric.Bigint.of_string d) with
        | n, d -> Some (`Cost (Q.make n d))
        | exception _ -> None)
      | _ -> None)
    | _ -> None

(* the poisoned optimum, as a store verdict *)
let poisoned_verdict grid (vec : Attack.Vector.t) =
  let topo = Grid.Topology.make ~mapped:vec.Attack.Vector.mapped grid in
  match Opf.Float_opf.solve ~loads:vec.Attack.Vector.est_loads topo with
  | Opf.Dc_opf.Dispatch d -> `Cost d.Opf.Dc_opf.cost
  | Opf.Dc_opf.Infeasible | Opf.Dc_opf.Unbounded -> `NoConv

(* the key is a canonical serialisation of the poisoned instance itself
   (each line carries its mapped bit through the content sort), so two
   .grid files that are row permutations of each other share entries for
   the same physical topology — and never for different ones *)
let cached_verdict config grid (vec : Attack.Vector.t) =
  match config.store with
  | None -> poisoned_verdict grid vec
  | Some store -> (
    let key =
      "verify:"
      ^ Store.Canonical.verify_key ~mapped:vec.Attack.Vector.mapped
          ~loads:vec.Attack.Vector.est_loads grid
    in
    match Option.bind (Store.Cache.find store key) decode_verdict with
    | Some verdict -> verdict
    | None ->
      let verdict = poisoned_verdict grid vec in
      Store.Cache.add store ~key ~value:(encode_verdict verdict);
      verdict)

(* the operator runs OPF on the poisoned topology and the shifted loads;
   the attack achieves the impact iff no dispatch beats the threshold
   (Eq. 37) while the OPF still converges (Eq. 38) *)
let verify_impact config grid (vec : Attack.Vector.t) ~threshold =
  Obs.Trace.with_span "impact.verify"
    ~args:[ ("threshold", Q.to_string threshold) ]
  @@ fun () ->
  Obs.Histogram.time obs_verify_hist @@ fun () ->
  match cached_verdict config grid vec with
  | `Cost c ->
    if Q.( >= ) c threshold then `Success c else `Cheaper_dispatch_exists
  | `NoConv -> `No_convergence

let base_opf grid = Opf.Float_opf.solve (Grid.Topology.make grid)

(* closed-form enumeration of single-line attacks (the paper's LODF-era
   fast path): no SMT involved.  The candidate verifications are
   independent OPF solves, so with config.jobs >= 2 they are fanned out
   over a domain pool; Pool.find_mapi_first keeps the sequential
   semantics (the success with the lowest candidate index wins, workers
   past a success are cancelled through the pool's shared best-index
   flag).  With jobs <= 1 the pool degrades to the plain sequential loop,
   early exit included. *)
let truncate_candidates config candidates =
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | c :: rest -> c :: take (n - 1) rest
  in
  take config.max_candidates candidates

(* ---- the solver-free audit pre-pass (closed-form path) ----

   Static verdicts per candidate, before any OPF runs:

   - [`Islanding]: the excluded line is a bridge, so the poisoned
     shift-factor OPF cannot converge.
   - [`Interval]: the attack-free dispatch still fits every line
     capacity on the poisoned instance (PTDF/LODF check with a margin
     covering the certified backend's 1e-6 PTDF rounding), so the
     poisoned optimum is at most [base_cost] — claimed only when the
     threshold is strictly above it.
   - [`Ceiling]: the threshold exceeds the exact box-and-balance cost
     ceiling, which no total-preserving dispatch can beat on any
     topology — every candidate is statically blocked.

   Each claim implies the candidate cannot verify as a success, so
   pruning never changes the outcome, the winning vector or the
   poisoned cost; [audit_cross_check] solves anyway and asserts that. *)

type static_verdict = [ `Islanding | `Interval | `Ceiling ]

let audit_verdicts config ~grid ~base_dispatch ~threshold ~base_cost
    candidates : static_verdict option array =
  let n = List.length candidates in
  if not (config.audit && n > 0) then Array.make n None
  else begin
    let above_ceiling =
      match Audit.cost_ceiling grid with
      | Some u -> Q.( > ) threshold u
      | None -> false
    in
    if above_ceiling then begin
      Obs.Counter.add obs_audit_pruned n;
      Obs.Counter.add obs_audit_pruned_ceiling n;
      Array.make n (Some `Ceiling)
    end
    else
      Audit.classify ~grid ~base_dispatch:base_dispatch.Opf.Dc_opf.pg
        ~islanding_sound:true
        ~interval_active:(Q.( > ) threshold base_cost)
        ~candidates
      |> List.map (function
           | Audit.Solve -> None
           | Audit.Prune_islanding ->
             Obs.Counter.incr obs_audit_pruned;
             Obs.Counter.incr obs_audit_pruned_islanding;
             Some `Islanding
           | Audit.Prune_interval ->
             Obs.Counter.incr obs_audit_pruned;
             Obs.Counter.incr obs_audit_pruned_interval;
             Some `Interval)
      |> Array.of_list
  end

(* cross-check mode: solve a pruned candidate after all and verify the
   static claim; a disagreement — the solver finding a success the audit
   pruned — bumps audit.prune.unsound. *)
let audit_cross_check config ~grid ~threshold vec (claim : static_verdict) =
  if config.audit_cross_check then begin
    let verdict = cached_verdict config grid vec in
    let agree =
      match (claim, verdict) with
      | `Islanding, `NoConv -> true
      | `Islanding, `Cost _ -> false
      | (`Interval | `Ceiling), `NoConv -> true
      | (`Interval | `Ceiling), `Cost c -> Q.( < ) c threshold
    in
    if not agree then Obs.Counter.incr obs_audit_unsound
  end

let analyze_closed_form config ~grid ~base_dispatch ~candidates ~base_cost
    ~threshold =
  (* the enumeration budget applies on this path too: the SMT loop stops
     after [max_candidates] queries, so the closed-form enumeration is
     cut to the same prefix of the ranked candidate list *)
  let candidates = truncate_candidates config candidates in
  let statics =
    audit_verdicts config ~grid ~base_dispatch ~threshold ~base_cost candidates
  in
  let examined = Atomic.make 0 in
  let survivors =
    List.filteri
      (fun i c ->
        match statics.(i) with
        | None -> true
        | Some claim ->
          (* a statically pruned candidate still counts as examined, so
             the reported outcome is identical with the audit on or off *)
          Atomic.incr examined;
          let _, _, vec = c in
          audit_cross_check config ~grid ~threshold vec claim;
          false)
      candidates
  in
  let verify i (_, _, vec) =
    check_interrupt config;
    Obs.Counter.incr obs_iterations;
    Obs.Counter.incr obs_candidates;
    Atomic.incr examined;
    Obs.Trace.with_span "impact.candidate"
      ~args:[ ("index", string_of_int i) ]
    @@ fun () ->
    match verify_impact config grid vec ~threshold with
    | `Success poisoned_cost -> Some (vec, poisoned_cost)
    | `Cheaper_dispatch_exists | `No_convergence ->
      Obs.Counter.incr obs_blocked;
      None
  in
  let found =
    Pool.with_pool ~jobs:config.jobs (fun pool ->
        Pool.find_mapi_first pool ~f:verify survivors)
  in
  match found with
  | Some (vec, poisoned_cost) ->
    Attack_found
      {
        vector = vec;
        base_cost;
        threshold;
        poisoned_cost = Some poisoned_cost;
        candidates = Atomic.get examined;
      }
  | None -> No_attack { candidates = Atomic.get examined }

let closed_form_applies config =
  config.use_closed_form
  && config.mode = Attack.Encoder.Topology_only
  && config.max_topology_changes = Some 1

(* the SMT candidate-enumeration loop against one threshold.  The solver
   may carry blocking clauses from lower thresholds: a blocked candidate
   has a poisoned optimum strictly below that lower threshold, hence below
   this one too, so the clauses stay valid for ascending sweeps. *)
let smt_loop config ~scenario ~grid ~solver ~vars ~base_cost ~threshold =
  let rec loop candidates =
    if candidates >= config.max_candidates then No_attack { candidates }
    else begin
      check_interrupt config;
      Obs.Counter.incr obs_iterations;
      match Solver.check solver with
      | `Unsat -> No_attack { candidates }
      | `Sat -> (
        Obs.Counter.incr obs_candidates;
        let vec = Attack.Vector.of_model solver vars scenario in
        let verdict =
          Obs.Trace.with_span "impact.candidate"
            ~args:[ ("index", string_of_int candidates) ]
            (fun () -> verify_impact config grid vec ~threshold)
        in
        match verdict with
        | `Success poisoned_cost ->
          Attack_found
            {
              vector = vec;
              base_cost;
              threshold;
              poisoned_cost = Some poisoned_cost;
              candidates = candidates + 1;
            }
        | `Cheaper_dispatch_exists | `No_convergence ->
          Obs.Counter.incr obs_blocked;
          Solver.assert_form solver
            (Attack.Vector.blocking_clause ~precision:config.precision vars vec);
          loop (candidates + 1))
    end
  in
  loop 0

let analyze_inner ~config ~(scenario : Grid.Spec.t)
    ~(base : Attack.Base_state.t) =
  check_interrupt config;
  let grid = scenario.Grid.Spec.grid in
  match base_opf grid with
  | Opf.Dc_opf.Infeasible -> Base_infeasible "attack-free OPF infeasible"
  | Opf.Dc_opf.Unbounded -> Base_infeasible "attack-free OPF unbounded"
  | Opf.Dc_opf.Dispatch base_dispatch ->
    let base_cost = base_dispatch.Opf.Dc_opf.cost in
    let threshold =
      threshold_of ~base_cost scenario.Grid.Spec.min_increase_pct
    in
    if closed_form_applies config then
      let candidates = Attack.Single_line.all_feasible ~scenario ~base in
      analyze_closed_form config ~grid ~base_dispatch ~candidates ~base_cost
        ~threshold
    else begin
      let solver = Solver.create () in
      let vars =
        Attack.Encoder.encode ?max_topology_changes:config.max_topology_changes
          solver ~mode:config.mode ~scenario ~base
      in
      smt_loop config ~scenario ~grid ~solver ~vars ~base_cost ~threshold
    end

let analyze ?(config = default_config) ~(scenario : Grid.Spec.t)
    ~(base : Attack.Base_state.t) () =
  Obs.Trace.with_span "impact.analyze" @@ fun () ->
  Obs.Timer.with_ obs_loop_timer @@ fun () ->
  with_interrupt_probe config (fun () -> analyze_inner ~config ~scenario ~base)

(* ---- threshold sweeps (satellite of the serving PR) ----

   A sweep over the impact target I re-solves nothing that is
   threshold-independent:

   - the attack-free OPF and (closed form) the candidate enumeration run
     once;
   - each candidate's poisoned optimum is computed at most once and compared against every threshold (memoised below,
     and shared further through config.store when present);
   - on the SMT path one solver and one encoding serve all targets,
     processed in ascending threshold order so accumulated blocking
     clauses remain valid (blocked at T means the poisoned optimum is
     below T, hence below any larger T'). *)

let sweep_closed_form config ~scenario ~base ~base_dispatch ~base_cost
    ~increases =
  let grid = scenario.Grid.Spec.grid in
  let candidate_list =
    truncate_candidates config (Attack.Single_line.all_feasible ~scenario ~base)
  in
  let candidates = Array.of_list candidate_list in
  (* audit pre-pass, threshold-independent pieces computed once: the
     islanding/interval verdicts hold for every target (the interval
     claim — poisoned optimum <= base_cost — is applied only at
     thresholds strictly above the base cost, i.e. every positive
     impact target), the cost ceiling is compared per threshold.
     Counters are bumped lazily, on the first target that actually
     skips a candidate, so [audit.pruned] counts solves avoided — not
     classifications that no target ever used. *)
  let statics =
    if not (config.audit && Array.length candidates > 0) then
      Array.make (Array.length candidates) None
    else
      Audit.classify ~grid ~base_dispatch:base_dispatch.Opf.Dc_opf.pg
        ~islanding_sound:true ~interval_active:true ~candidates:candidate_list
      |> List.map (function
           | Audit.Solve -> None
           | Audit.Prune_islanding -> Some `Islanding
           | Audit.Prune_interval -> Some `Interval)
      |> Array.of_list
  in
  let ceiling =
    if config.audit then Audit.cost_ceiling grid else None
  in
  let prune_counted = Array.make (Array.length candidates) false in
  let count_prune i (claim : static_verdict) =
    if not prune_counted.(i) then begin
      prune_counted.(i) <- true;
      Obs.Counter.incr obs_audit_pruned;
      Obs.Counter.incr
        (match claim with
        | `Islanding -> obs_audit_pruned_islanding
        | `Interval -> obs_audit_pruned_interval
        | `Ceiling -> obs_audit_pruned_ceiling)
    end
  in
  let cross_checked = Array.make (Array.length candidates) false in
  let memo = Array.make (Array.length candidates) None in
  (* verdict plus whether this call actually solved (fresh) or reused *)
  let verdict i =
    match memo.(i) with
    | Some v ->
      Obs.Counter.incr obs_sweep_reused;
      (v, false)
    | None ->
      check_interrupt config;
      Obs.Counter.incr obs_iterations;
      Obs.Counter.incr obs_candidates;
      let _, _, vec = candidates.(i) in
      let v =
        Obs.Trace.with_span "impact.candidate"
          ~args:[ ("index", string_of_int i) ]
        @@ fun () ->
        Obs.Histogram.time obs_verify_hist @@ fun () ->
        cached_verdict config grid vec
      in
      memo.(i) <- Some v;
      (v, true)
  in
  List.map
    (fun pct ->
      let threshold = threshold_of ~base_cost pct in
      let interval_applies = Q.( > ) threshold base_cost in
      let above_ceiling =
        match ceiling with Some u -> Q.( > ) threshold u | None -> false
      in
      let pruned i =
        match statics.(i) with
        | Some `Islanding -> true
        | Some `Interval -> interval_applies
        | None -> above_ceiling
      in
      let rec scan i =
        if i >= Array.length candidates then
          No_attack { candidates = Array.length candidates }
        else if pruned i then begin
          let claim =
            match statics.(i) with
            | Some `Islanding -> `Islanding
            | Some `Interval -> `Interval
            | None -> `Ceiling
          in
          count_prune i claim;
          (if not cross_checked.(i) then begin
             cross_checked.(i) <- true;
             let _, _, vec = candidates.(i) in
             audit_cross_check config ~grid ~threshold vec claim
           end);
          scan (i + 1)
        end
        else
          match verdict i with
          | `Cost c, _ when Q.( >= ) c threshold ->
            let _, _, vec = candidates.(i) in
            Attack_found
              {
                vector = vec;
                base_cost;
                threshold;
                poisoned_cost = Some c;
                candidates = i + 1;
              }
          | (`Cost _ | `NoConv), fresh ->
            if fresh then Obs.Counter.incr obs_blocked;
            scan (i + 1)
      in
      (pct, scan 0))
    increases

let sweep_smt config ~scenario ~base ~base_cost ~increases =
  let grid = scenario.Grid.Spec.grid in
  let solver = Solver.create () in
  let vars =
    Attack.Encoder.encode ?max_topology_changes:config.max_topology_changes
      solver ~mode:config.mode ~scenario ~base
  in
  (* ascending thresholds keep the accumulated blocking clauses sound *)
  let indexed = List.mapi (fun i pct -> (i, pct)) increases in
  let by_threshold =
    List.sort (fun (_, a) (_, b) -> Q.compare a b) indexed
  in
  let results = Array.make (List.length increases) None in
  List.iter
    (fun (i, pct) ->
      let threshold = threshold_of ~base_cost pct in
      let outcome =
        smt_loop config ~scenario ~grid ~solver ~vars ~base_cost ~threshold
      in
      results.(i) <- Some (pct, outcome))
    by_threshold;
  List.map
    (fun (i, pct) ->
      match results.(i) with
      | Some r -> r
      | None -> (pct, No_attack { candidates = 0 }) (* unreachable *))
    indexed

let analyze_sweep ?(config = default_config) ~(scenario : Grid.Spec.t)
    ~(base : Attack.Base_state.t) ~increases () =
  Obs.Trace.with_span "impact.sweep" @@ fun () ->
  Obs.Timer.with_ obs_loop_timer @@ fun () ->
  with_interrupt_probe config @@ fun () ->
  Obs.Counter.add obs_sweep_targets (List.length increases);
  check_interrupt config;
  let grid = scenario.Grid.Spec.grid in
  match base_opf grid with
  | Opf.Dc_opf.Infeasible ->
    List.map (fun pct -> (pct, Base_infeasible "attack-free OPF infeasible")) increases
  | Opf.Dc_opf.Unbounded ->
    List.map (fun pct -> (pct, Base_infeasible "attack-free OPF unbounded")) increases
  | Opf.Dc_opf.Dispatch base_dispatch ->
    let base_cost = base_dispatch.Opf.Dc_opf.cost in
    if closed_form_applies config then
      sweep_closed_form config ~scenario ~base ~base_dispatch ~base_cost
        ~increases
    else sweep_smt config ~scenario ~base ~base_cost ~increases

let max_achievable_increase ?(config = default_config)
    ~(scenario : Grid.Spec.t) ~(base : Attack.Base_state.t) () =
  with_interrupt_probe config @@ fun () ->
  let grid = scenario.Grid.Spec.grid in
  match base_opf grid with
  | Opf.Dc_opf.Infeasible | Opf.Dc_opf.Unbounded -> None
  | Opf.Dc_opf.Dispatch base_dispatch ->
    let base_cost = base_dispatch.Opf.Dc_opf.cost in
    let solver = Solver.create () in
    let vars =
      Attack.Encoder.encode ?max_topology_changes:config.max_topology_changes
        solver ~mode:config.mode ~scenario ~base
    in
    let best = ref None in
    let continue = ref true in
    let candidates = ref 0 in
    while !continue && !candidates < config.max_candidates do
      incr candidates;
      check_interrupt config;
      Obs.Counter.incr obs_iterations;
      match Solver.check solver with
      | `Unsat -> continue := false
      | `Sat -> (
        Obs.Counter.incr obs_candidates;
        let vec = Attack.Vector.of_model solver vars scenario in
        (match poisoned_verdict grid vec with
        | `Cost cost -> (
          match !best with
          | Some b when Q.( >= ) b cost -> ()
          | _ -> best := Some cost)
        | `NoConv -> ());
        (* every candidate is blocked here — the search is exhaustive *)
        Obs.Counter.incr obs_blocked;
        Solver.assert_form solver
          (Attack.Vector.blocking_clause ~precision:config.precision vars vec))
    done;
    Option.map
      (fun c ->
        Q.mul (Q.of_int 100) (Q.div (Q.sub c base_cost) base_cost))
      !best
