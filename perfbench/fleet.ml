(* Lifecycle of the fleet under test: `topoguard fleet` with two shards on
   loopback TCP, started under setsid as the leader of a new process
   group, so that every process it forks can be found and stopped, and
   answered through Serve.Client only. *)

open Util
module C = Serve.Client
module P = Serve.Protocol

let shards = 2
let host = "127.0.0.1"

type t = {
  pid : int;  (* the fleet process, leader of its own process group *)
  endpoint : Serve.Transport.endpoint;  (* the coordinator *)
  shard_endpoints : (string * Serve.Transport.endpoint) list;
  trace : string option;  (* coordinator trace file; shard i adds .shard-i *)
  accept_s : float;  (* spawn until the coordinator accepted *)
}

let port_free port =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close s) @@ fun () ->
  match Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> true
  | exception Unix.Unix_error _ -> false

(* Three consecutive free ports (coordinator, shard-0, shard-1), taken
   from 10000-32000, below Linux's default ephemeral range: polling
   connect() on a closed port inside that range can hand the client the
   same port and connect the socket to itself. *)
let pick_ports () =
  let rec go attempt =
    if attempt > 200 then die "no free loopback port range found";
    let base =
      10000 + ((Unix.getpid () * 7919) + (attempt * 104729) + int_of_float (now () *. 1000.)) mod 22000
    in
    if List.for_all port_free (List.init (shards + 1) (fun i -> base + i)) then base
    else go (attempt + 1)
  in
  go 0

let group_alive pid =
  match Unix.kill (-pid) 0 with
  | () -> true
  | exception Unix.Unix_error _ -> false

let reap pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* wait for the fleet process and then for every process of its group *)
let wait_gone ?(timeout = 30.) pid =
  let deadline = now () +. timeout in
  let rec loop reaped =
    let reaped = reaped || reap pid in
    if reaped && not (group_alive pid) then true
    else if now () > deadline then false
    else begin
      Unix.sleepf 0.02;
      loop reaped
    end
  in
  loop false

let kill_group pid =
  (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
  if not (wait_gone ~timeout:10. pid) then note "fleet process group %d did not exit" pid

let connect endpoint =
  match C.connect_endpoint endpoint with
  | Ok c -> c
  | Error e -> die "connect %s: %s" (Serve.Transport.endpoint_to_string endpoint) e

let rpc c req =
  match C.request c req with
  | Ok j -> j
  | Error e -> die "%s request: %s" (J.to_string (P.json_of_request req)) e

let is_ok j = J.member "ok" j = Some (J.Bool true)

let rec start ?(attempts = 3) ~cli ~dir ?trace () =
  try start_once ~cli ~dir ?trace ()
  with Bench_error e when attempts > 1 ->
    note "%s; starting the fleet again on other ports" e;
    start ~attempts:(attempts - 1) ~cli ~dir ?trace ()

and start_once ~cli ~dir ?trace () =
  mkdir_p dir;
  let base = pick_ports () in
  let log = Filename.concat dir "fleet.log" in
  let endpoint = Serve.Transport.Tcp (host, base) in
  let argv =
    Array.of_list
      ([
         "setsid"; cli; "fleet";
         "--listen"; Serve.Transport.endpoint_to_string endpoint;
         "--shards"; string_of_int shards;
         "--host"; host;
         "--base-port"; string_of_int (base + 1);
         "--jobs"; "1";
         "--journal-dir"; dir;
       ]
      @ match trace with Some f -> [ "--trace"; f ] | None -> [])
  in
  let log_fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (* stdin: an empty pipe *)
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  Unix.close stdin_w;
  let t0 = now () in
  let pid = Unix.create_process "setsid" argv stdin_r log_fd log_fd in
  Unix.close stdin_r;
  Unix.close log_fd;
  let fail msg =
    kill_group pid;
    die "fleet did not start (%s); log:\n%s" msg
      (try read_file log with Sys_error _ -> "")
  in
  let deadline = t0 +. 60. in
  let rec wait_accept () =
    match C.connect_endpoint endpoint with
    | Ok c -> (now () -. t0, c)
    | Error _ ->
      if reap pid then fail "fleet process exited"
      else if now () > deadline then fail "no accept within 60 s"
      else begin
        Unix.sleepf 0.002;
        wait_accept ()
      end
  in
  let accept_s, c = wait_accept () in
  (* the port answered: make sure it is our coordinator with our shards *)
  let stats = try rpc c P.Stats with Bench_error e -> fail e in
  C.close c;
  (match J.member "ring" stats with
  | Some ring when J.member "shards" ring <> None -> ()
  | _ -> fail "the coordinator port answered without a ring");
  {
    pid;
    endpoint;
    shard_endpoints =
      List.init shards (fun i ->
          (Printf.sprintf "shard-%d" i, Serve.Transport.Tcp (host, base + 1 + i)));
    trace;
    accept_s;
  }

(* drain through the shutdown verb; force only when draining fails *)
let stop t =
  (match C.connect_endpoint t.endpoint with
  | Ok c ->
    ignore (C.request c P.Shutdown);
    C.close c
  | Error _ -> ());
  if not (wait_gone t.pid) then begin
    note "fleet did not drain within 30 s; killing its process group";
    kill_group t.pid
  end

let trace_files t =
  match t.trace with
  | None -> []
  | Some f -> f :: List.map (fun (name, _) -> f ^ "." ^ name) t.shard_endpoints

(* one stats scrape: the coordinator's own window and each shard's *)
type scrape = {
  coordinator : Obs.snapshot;
  per_shard : (string * Obs.snapshot) list;
  depth : int;  (* queued jobs summed over shards *)
}

let scrape c =
  let j = rpc c P.Stats in
  if not (is_ok j) then die "stats failed: %s" (J.to_string j);
  let snap j =
    match J.member "snapshot" j with
    | Some s -> snapshot_of_json s
    | None -> empty_snapshot
  in
  let shards =
    match J.member "shards" j with Some (J.Obj kvs) -> kvs | _ -> []
  in
  let depth =
    List.fold_left
      (fun acc (_, s) ->
        match Option.bind (J.member "queue" s) (J.member "depth") with
        | Some (J.Int d) -> acc + d
        | _ -> acc)
      0 shards
  in
  {
    coordinator = snap j;
    per_shard = List.map (fun (name, s) -> (name, snap s)) shards;
    depth;
  }

let diff_scrape ~before ~after =
  {
    coordinator = Obs.diff ~before:before.coordinator ~after:after.coordinator;
    per_shard =
      List.map
        (fun (name, a) ->
          let b = Option.value ~default:empty_snapshot (List.assoc_opt name before.per_shard) in
          (name, Obs.diff ~before:b ~after:a))
        after.per_shard;
    depth = after.depth;
  }
