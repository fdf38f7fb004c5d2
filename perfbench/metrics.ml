(* Every metric the benchmark reports, with its unit.  BENCHMARK.json
   lists the same names; the self-test holds the two together. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("sweep_s", "s");
    ("jobs_per_s", "1/s");
    ("lat_p50_ms", "ms");
    ("lat_tail_ms", "ms");
  ]

let per_layer =
  [
    ("grid.parse_ms", "ms");
    ("grid.topology_ms", "ms");
    ("store.key_ms", "ms");
    ("store.hit_ratio", "ratio");
    ("store.inserts", "count");
    ("cluster.hop_ms", "ms");
    ("cluster.route_ms", "ms");
    ("cluster.shard_skew", "ratio");
    ("serve.submit_ms", "ms");
    ("serve.queue_wait_ms.p50", "ms");
    ("serve.queue_wait_ms.p99", "ms");
    ("serve.service_ms.p50", "ms");
    ("serve.service_ms.p99", "ms");
    ("serve.await_overhead_ms", "ms");
    ("client.backoff_ms", "ms");
    ("client.polls", "count");
    ("serve.queue_depth_max", "count");
    ("generator.lateness_ms.p50", "ms");
    ("generator.lateness_ms.max", "ms");
    ("core.sweep_ms.bundled", "ms");
    ("core.sweep_ms.generated", "ms");
    ("attack.verify_ms.p50", "ms");
    ("attack.verify_ms.p99", "ms");
    ("attack.verifications", "count");
    ("attack.sweep.reused", "count");
    ("attack.base_state_ms", "ms");
    ("attack.enumerate_ms", "ms");
    ("audit.classify_ms", "ms");
    ("audit.prune_ratio", "ratio");
    ("opf.solves", "count");
    ("opf.solve_ms", "ms");
    ("opf.ptdf_rows", "count");
    ("lp.pivots_per_solve", "count");
    ("lp.certify_ms", "ms");
    ("lp.certify.fallback_ratio", "ratio");
    ("lp.presolve.rows_eliminated", "count");
    ("linalg.lu.factorizations", "count");
    ("linalg.lu.fill_in", "count");
    ("linalg.bareiss.solves", "count");
    ("obs.trace_overhead", "ratio");
  ]

(* What a workload run hands back to the report. *)
type run = {
  e2e : (string * float) list;
  layer : (string * float) list;  (* traced run only *)
  absent : (string * string) list;  (* per-layer metric -> why it has no value here *)
  attempted : int;
  failed : int;  (* wrong or failed answers *)
  problems : string list;  (* failed correctness or work-done checks *)
}
