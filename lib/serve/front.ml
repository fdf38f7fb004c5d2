module J = Obs.Json

type conn = {
  fd : Unix.file_descr;
  reader : Protocol.Frame.reader;
  mutable out : string;  (* the current reply ... *)
  mutable out_pos : int;  (* ... of which this much is written *)
  mutable closing : bool;  (* the oversized-line reply was sent *)
}

type t = {
  name : string;
  rid_prefix : string;
  endpoint : Transport.endpoint;
  max_line : int;
  trace : string option;
  log : string -> unit;
  mutable listener : Unix.file_descr option;
  mutable conns : conn list;
  mutable next_rid : int;
  draining : bool Atomic.t;
  access_log : out_channel option;
  prev_term : Sys.signal_behavior;
  c_requests : Obs.Counter.t;
  c_oversized : Obs.Counter.t;
  h_request : Obs.Histogram.t;
}

type handler = {
  handle : Protocol.request -> J.t;
  access_fields : trace:string option -> J.t -> (string * J.t) list;
  tick : unit -> unit;
  finished : unit -> bool;
}

let listen ~name ~rid_prefix ~listen ~max_line ~access_log ~trace ~log =
  Obs.Clock.set Unix.gettimeofday;
  Obs.set_enabled true;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Transport.listen listen with
  | Error e -> Error e
  | Ok fd -> (
    match
      Option.map (open_out_gen [ Open_append; Open_creat ] 0o644) access_log
    with
    | exception Sys_error e ->
      (* better to refuse than to serve blind *)
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Transport.cleanup listen;
      Error ("access log: " ^ e)
    | access_log ->
      Unix.set_nonblock fd;
      if trace <> None then begin
        Obs.Trace.set_pid (Unix.getpid ());
        Obs.Trace.set_enabled true
      end;
      let draining = Atomic.make false in
      let prev_term =
        Sys.signal Sys.sigterm
          (Sys.Signal_handle (fun _ -> Atomic.set draining true))
      in
      Ok
        {
          name;
          rid_prefix;
          endpoint = listen;
          max_line;
          trace;
          log;
          listener = Some fd;
          conns = [];
          next_rid = 1;
          draining;
          access_log;
          prev_term;
          c_requests = Obs.Counter.make (name ^ ".requests");
          c_oversized = Obs.Counter.make (name ^ ".requests.oversized");
          h_request = Obs.Histogram.make (name ^ ".request.seconds");
        })

let draining t = Atomic.get t.draining
let drain t = Atomic.set t.draining true

let log_access t fields =
  match t.access_log with
  | None -> ()
  | Some oc ->
    output_string oc
      (J.to_string (J.Obj (("ts", J.Float (Obs.Clock.now ())) :: fields)));
    output_char oc '\n';
    flush oc

let with_fields reply extra =
  match reply with J.Obj fields -> J.Obj (fields @ extra) | other -> other

let handle_line t h line =
  let t0 = Obs.Clock.now () in
  let json = J.of_string line in
  let field f = match json with Ok j -> f j | Error _ -> None in
  let verb =
    match field (J.member "op") with Some (J.String s) -> s | _ -> "invalid"
  in
  let ctx =
    match field Protocol.trace_of_json with
    | None when Obs.Trace.enabled () -> Some (Obs.Trace.new_trace_id (), "")
    | c -> c
  in
  let inner = Option.map (fun (id, _) -> (id, Obs.Trace.new_span_id ())) ctx in
  let reply =
    match Result.map Protocol.request_of_json json with
    | Error e -> Protocol.err ("bad json: " ^ e)
    | Ok (Error e) -> Protocol.err e
    | Ok (Ok req) ->
      Obs.Counter.incr t.c_requests;
      Obs.Trace.with_context inner (fun () -> h.handle req)
  in
  let rid =
    match field Protocol.request_id_of_json with
    | Some r -> r
    | None ->
      t.next_rid <- t.next_rid + 1;
      Printf.sprintf "%s%d" t.rid_prefix (t.next_rid - 1)
  in
  let reply =
    with_fields reply
      [ ("request_id", J.String rid); ("v", J.Int Protocol.version) ]
  in
  let latency = Obs.Clock.now () -. t0 in
  Obs.Histogram.observe t.h_request latency;
  Obs.Trace.with_context ctx (fun () ->
      Obs.Trace.complete
        ~args:
          ([ ("verb", verb); ("request_id", rid) ]
          @ match inner with Some (_, span) -> [ ("span", span) ] | None -> [])
        ~ts:t0 ~dur:latency (t.name ^ ".request"));
  let outcome =
    match J.member "ok" reply with Some (J.Bool true) -> "ok" | _ -> "error"
  in
  log_access t
    ([
       ("kind", J.String "request");
       ("request_id", J.String rid);
       ("verb", J.String verb);
       ("outcome", J.String outcome);
     ]
    @ h.access_fields ~trace:(Option.map fst ctx) reply
    @ [ ("latency_s", J.Float latency) ]);
  reply

(* ---- connections ---- *)

exception Closed

let written c = c.out_pos >= String.length c.out

(* write as much of the current reply as the socket takes now *)
let rec write_all c =
  if not (written c) then
    match
      Unix.single_write_substring c.fd c.out c.out_pos
        (String.length c.out - c.out_pos)
    with
    | n ->
      c.out_pos <- c.out_pos + n;
      write_all c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all c
    | exception Unix.Unix_error _ -> raise Closed

(* handle received lines one at a time, each once the previous reply is
   fully written *)
let rec pump t h c =
  write_all c;
  if written c then
    match Protocol.Frame.next c.reader with
    | `Line line when String.trim line = "" -> pump t h c
    | `Line line -> send t h c (handle_line t h line)
    | `Oversized when not c.closing ->
      Obs.Counter.incr t.c_oversized;
      c.closing <- true;
      send t h c
        (with_fields
           (Protocol.err (Printf.sprintf "line exceeds %d bytes" t.max_line))
           [ ("v", J.Int Protocol.version) ])
    | `Oversized | `Eof -> raise Closed
    | `Empty -> ()

and send t h c reply =
  c.out <- J.to_string reply ^ "\n";
  c.out_pos <- 0;
  pump t h c

(* after [pump], a connection whose reply is written has no line left
   unhandled; only then is it read from, so one peer can make the loop
   hold at most one reply and one read's worth of lines *)
let idle c = written c && not c.closing

let close_conn t c =
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  t.conns <- List.filter (fun c' -> c' != c) t.conns

let rec accept_new t l =
  match Unix.accept l with
  | fd, _ ->
    Unix.set_nonblock fd;
    let reader = Protocol.Frame.reader ~max_line:t.max_line fd in
    t.conns <- { fd; reader; out = ""; out_pos = 0; closing = false } :: t.conns;
    accept_new t l
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_new t l

let stop_listening t =
  Option.iter
    (fun l ->
      (try Unix.close l with Unix.Unix_error _ -> ());
      t.listener <- None;
      t.log "draining: listener closed")
    t.listener

let run t h =
  while not (draining t && h.finished ()) do
    if draining t then stop_listening t;
    let fds p = List.filter_map (fun c -> if p c then Some c.fd else None) in
    let readable, writable, _ =
      match
        Unix.select
          (Option.to_list t.listener @ fds idle t.conns)
          (fds (fun c -> not (written c)) t.conns)
          [] 0.05
      with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    (match t.listener with
    | Some l when List.mem l readable -> accept_new t l
    | _ -> ());
    List.iter
      (fun c ->
        let r = List.mem c.fd readable in
        if r || List.mem c.fd writable then
          try
            if r then (
              try Protocol.Frame.fill c.reader
              with Unix.Unix_error _ -> raise Closed);
            pump t h c
          with Closed -> close_conn t c)
      t.conns;
    h.tick ()
  done;
  List.iter
    (fun c ->
      (* one last non-blocking attempt at what is still unwritten *)
      (try write_all c with Closed -> ());
      close_conn t c)
    t.conns;
  stop_listening t;
  Transport.cleanup t.endpoint;
  Option.iter
    (fun path ->
      Obs.Trace.set_enabled false;
      Obs.Trace.write_file path;
      t.log ("trace written to " ^ path))
    t.trace;
  Option.iter close_out t.access_log;
  Sys.set_signal Sys.sigterm t.prev_term
