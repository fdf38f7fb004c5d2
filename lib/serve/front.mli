(** The one request loop behind both front doors: the shard server
    ({!Server}) and the fleet coordinator ([Cluster.Coordinator]) are
    handlers of it.

    [Front] owns the listening socket, accept, and a 50 ms [select]
    tick on one domain; line framing ({!Protocol.Frame}, which
    decides the line cap); request ids (the client's, echoed, or
    [<prefix><n>]); the trace context; the [<name>.requests] counter,
    the [<name>.request.seconds] histogram and the [<name>.request]
    span; the access log; the oversized-line reply (counted in
    [<name>.requests.oversized]); and SIGTERM drain.

    Writes never block.  A reply is written at once and only the part
    the socket did not take is buffered; a connection's next request
    line is handled only after its previous reply has been fully
    written, and it is not read from meanwhile.  A peer that stops
    reading therefore holds at most one reply and stalls nobody else.

    Trace policy: a request without a ["trace"] context is minted one
    while tracing is on.  Each traced request gets its own span id,
    recorded as the [span] arg of [<name>.request]; the handler runs
    under [(trace id, that span id)], so spans recorded meanwhile, and
    the context a handler forwards downstream, name the request span as
    their parent. *)

type t

val listen :
  name:string ->
  rid_prefix:string ->
  listen:Transport.endpoint ->
  max_line:int ->
  access_log:string option ->
  trace:string option ->
  log:(string -> unit) ->
  (t, string) result
(** Bind [listen], open [access_log] for appending, switch tracing on
    when [trace] is set, and route SIGTERM to {!drain}.  [name] is
    ["serve"] or ["cluster"] and prefixes the series and the span;
    [rid_prefix] starts generated request ids.  An unopenable access
    log is a startup error, like a socket in use. *)

val draining : t -> bool
val drain : t -> unit
(** Stop accepting: the listener closes on the next tick and {!run}
    returns once the handler is [finished]. *)

val log_access : t -> (string * Obs.Json.t) list -> unit
(** Append one JSON object, stamped with ["ts"], to the access log (a
    no-op without one).  {!run} writes the ["kind": "request"] lines;
    handlers may add their own kinds. *)

type handler = {
  handle : Protocol.request -> Obs.Json.t;
      (** the reply to one parsed request, without [request_id]/[v] *)
  access_fields :
    trace:string option -> Obs.Json.t -> (string * Obs.Json.t) list;
      (** extra fields of the request's access-log line, given its trace
          id and its reply; placed between [outcome] and [latency_s] *)
  tick : unit -> unit;  (** once per loop turn, after the I/O *)
  finished : unit -> bool;
      (** asked only while draining: [true] once nothing is left to do *)
}

val run : t -> handler -> unit
(** Serve until draining and [finished ()].  Then close every
    connection and the listener, remove a Unix socket's file, write the
    trace file, close the access log and restore the previous SIGTERM
    behaviour. *)
