(* A channel from the coordinator to one shard server: a name, an
   endpoint, and a lazily (re)dialed client connection.

   Failure discipline: protocol-level errors (ok = false responses) are
   the shard speaking and prove it alive; only transport failures count
   against it.  A transport failure on an existing connection gets one
   fresh dial (the shard may simply have restarted); if that also
   fails, the shard is marked dead and stays dead. *)

type t = {
  name : string;
  endpoint : Serve.Transport.endpoint;
  mutable conn : Serve.Client.t option;
  mutable alive : bool;
}

let make ~name endpoint = { name; endpoint; conn = None; alive = true }
let name t = t.name
let alive t = t.alive

let drop_conn t =
  match t.conn with
  | Some c ->
    Serve.Client.close c;
    t.conn <- None
  | None -> ()

let close t = drop_conn t

let mark_dead t =
  drop_conn t;
  t.alive <- false

let connection t =
  match t.conn with
  | Some c -> Ok c
  | None -> (
    match Serve.Client.connect_endpoint t.endpoint with
    | Ok c ->
      t.conn <- Some c;
      Ok c
    | Error e -> Error e)

let rpc t json =
  if not t.alive then Error (t.name ^ ": shard is dead")
  else begin
    let had_conn = t.conn <> None in
    match connection t with
    | Error e ->
      mark_dead t;
      Error e
    | Ok c -> (
      match Serve.Client.rpc c json with
      | Ok resp -> Ok resp
      | Error _ when had_conn -> (
        (* stale connection (shard restarted?): one fresh dial *)
        drop_conn t;
        match connection t with
        | Error e ->
          mark_dead t;
          Error e
        | Ok c -> (
          match Serve.Client.rpc c json with
          | Ok resp -> Ok resp
          | Error e ->
            mark_dead t;
            Error e))
      | Error e ->
        mark_dead t;
        Error e)
  end

let request ?trace t req =
  rpc t (Serve.Protocol.with_trace trace (Serve.Protocol.json_of_request req))
