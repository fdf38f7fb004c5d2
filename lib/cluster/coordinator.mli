(** The fleet's front door: speaks the same {!Serve.Protocol} as a
    shard, owns no store and no solver, and only decides {e where} each
    request runs — by consistent hashing ({!Ring}) over the same
    canonical job keys the shards cache under, so identical scenarios
    always land on the shard whose LRU/journal already holds them.  It
    runs the same request loop as a shard server ({!Serve.Front}).

    Job ids are rewritten at the boundary (clients hold coordinator
    ids; shard-local ids never escape) and each job's payload and
    placement are retained, which is also the failover story: a shard
    that fails a call is dropped from the ring (counted in
    [cluster.ring.rebalances], with the owner changes of tracked keys
    in [cluster.ring.keys_moved]) and the retained payload is
    transparently resubmitted to the new owner on the next
    status/result touch.  Batches ([submit_batch]) fan out one
    sub-batch per owning shard and gather per-item responses back into
    submission order ([cluster.batch.{submitted,failed}]); [stats] and
    [metrics] aggregate every shard — the Prometheus exposition
    relabels each shard's samples under [shard="name"] — and
    [shutdown] (or SIGTERM) forwards the drain to every shard before
    the coordinator exits. *)

type config = {
  listen : Serve.Transport.endpoint;
  shards : (string * Serve.Transport.endpoint) list;
      (** distinct names; ring placement hashes the names, so keeping a
          name stable across restarts keeps its arcs (and cache) *)
  vnodes : int;  (** ring points per shard ({!Ring.default_vnodes}) *)
  verbose : bool;
  max_line : int;  (** per-connection carry cap, as in the server *)
  access_log : string option;
      (** append one JSON object per routed request to this file —
          [ts]/[request_id]/[verb]/[outcome]/[latency_s] like the shard
          server's log, plus the routed [shard] name and the request's
          [trace] id; an unopenable path is a startup error *)
  trace : string option;
      (** record [cluster.request] spans while routing and write Chrome
          [trace_event] JSON here on drain.  While tracing, a request
          arriving without a trace context is minted one at the front
          door; either way shard calls forward the trace id with the
          coordinator's span as the new parent. *)
}

val default_config :
  listen:Serve.Transport.endpoint ->
  shards:(string * Serve.Transport.endpoint) list ->
  config

val run : config -> (unit, string) result
(** Serve until drained (the [shutdown] verb or SIGTERM).  [Error]
    covers startup problems only: nothing to route to, duplicate shard
    names, endpoint in use.  Shards are dialed lazily — a shard that is
    down at startup only fails the requests routed to it. *)
