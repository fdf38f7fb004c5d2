(** The coordinator's channel to one shard server: name, endpoint, and
    a lazily (re)dialed connection.  Protocol-level errors ([ok] =
    false responses) prove the shard alive; only transport failures
    mark it dead, after one reconnect attempt (the shard may just have
    restarted and dropped the old connection).  A dead shard fails
    every call instantly from then on. *)

type t

val make : name:string -> Serve.Transport.endpoint -> t
val name : t -> string
val alive : t -> bool

val request :
  ?trace:string * string ->
  t ->
  Serve.Protocol.request ->
  (Obs.Json.t, string) result
(** One request/response round trip; dials on first use.  [Error] =
    transport failure (and the shard is now marked dead).  [?trace]
    forwards a [(trace id, parent span id)] context on the request
    envelope ({!Serve.Protocol.with_trace}), so the shard's spans for
    this request join the originating trace. *)

val mark_dead : t -> unit

val close : t -> unit
(** Drop the connection (the shard stays alive for a future redial). *)
