module J = Obs.Json

(* wire protocol version: requests and responses both carry ["v"]; a
   request whose version is newer than ours is rejected up front instead
   of being half-understood.  Absent = 1 (the pre-versioned wire). *)
let version = 1

(* ---- transport-agnostic framing ----

   One JSON object per line in both directions, over any stream
   transport (Unix-domain or TCP).  Newlines inside payloads are
   JSON-escaped by construction, so framing is a newline scan — the only
   policy the framing layer adds is a cap on the line length, so one
   malformed (or hostile) peer cannot balloon a server's carry buffer. *)
module Frame = struct
  (* generous: a submit_batch line carries whole grid files for every
     item, and a sync response carries a shard's journal slice *)
  let default_max_line = 64 * 1024 * 1024

  type reader = {
    fd : Unix.file_descr;
    max_line : int;
    carry : Buffer.t;  (* the unterminated tail of what was read *)
    lines : string Queue.t;  (* complete lines not yet taken *)
    chunk : Bytes.t;
    mutable oversized : bool;
    mutable eof : bool;
  }

  let reader ?(max_line = default_max_line) fd =
    {
      fd;
      max_line;
      carry = Buffer.create 4096;
      lines = Queue.create ();
      chunk = Bytes.create 65536;
      oversized = false;
      eof = false;
    }

  let next r =
    if not (Queue.is_empty r.lines) then `Line (Queue.pop r.lines)
    else if r.oversized then `Oversized
    else if r.eof then `Eof
    else `Empty

  (* one read.  A line past the cap, complete or still accumulating, ends
     the stream: it cannot be resynchronised. *)
  let fill r =
    match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
    | 0 -> r.eof <- true
    | n ->
      let chunk = Bytes.sub_string r.chunk 0 n in
      (match String.rindex_opt chunk '\n' with
      | None -> Buffer.add_string r.carry chunk
      | Some last ->
        Buffer.add_substring r.carry chunk 0 last;
        let lines = String.split_on_char '\n' (Buffer.contents r.carry) in
        Buffer.clear r.carry;
        Buffer.add_substring r.carry chunk (last + 1) (n - last - 1);
        List.iter
          (fun l ->
            if String.length l > r.max_line then r.oversized <- true
            else if not r.oversized then Queue.push l r.lines)
          lines);
      if Buffer.length r.carry > r.max_line then r.oversized <- true
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      r.eof <- true

  let rec read_line r =
    match next r with
    | `Empty ->
      fill r;
      read_line r
    | (`Line _ | `Oversized | `Eof) as x -> x

  (* blocking descriptors only: partial writes are retried *)
  let write_line fd s =
    let s = s ^ "\n" in
    let rec go ofs =
      if ofs < String.length s then
        match Unix.single_write_substring fd s ofs (String.length s - ofs) with
        | w -> go (ofs + w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ofs
    in
    go 0
end

let ok_fields fields = J.Obj (("ok", J.Bool true) :: fields)

let err ?retry_after msg =
  J.Obj
    ([ ("ok", J.Bool false); ("error", J.String msg) ]
    @
    match retry_after with
    | Some s -> [ ("retry_after", J.Float s) ]
    | None -> [])

type submit = {
  grid : string;
  mode : string;
  base : string;
  increase : string option;
  max_candidates : int;
  single_line : bool;
  backend : string;
  timeout : float;
}

let default_submit =
  {
    grid = "";
    mode = "topo";
    base = "case-study";
    increase = None;
    max_candidates = 200;
    single_line = false;
    backend = "lp";
    timeout = 0.;
  }

type request =
  | Submit of submit
  | Submit_batch of submit list
  | Status of int
  | Result of int
  | Cancel of int
  | Sync of (int * int) list
  | Stats
  | Metrics
  | Shutdown

let submit_fields s =
  [
    ("grid", J.String s.grid);
    ("mode", J.String s.mode);
    ("base", J.String s.base);
  ]
  @ (match s.increase with
    | Some i -> [ ("increase", J.String i) ]
    | None -> [])
  @ [
      ("max_candidates", J.Int s.max_candidates);
      ("single_line", J.Bool s.single_line);
      ("backend", J.String s.backend);
      ("timeout", J.Float s.timeout);
    ]

let with_op op fields = J.Obj (("op", J.String op) :: ("v", J.Int version) :: fields)

let json_of_request = function
  | Submit s -> with_op "submit" (submit_fields s)
  | Submit_batch items ->
    with_op "submit_batch"
      [ ("items", J.List (List.map (fun s -> J.Obj (submit_fields s)) items)) ]
  | Status id -> with_op "status" [ ("id", J.Int id) ]
  | Result id -> with_op "result" [ ("id", J.Int id) ]
  | Cancel id -> with_op "cancel" [ ("id", J.Int id) ]
  | Sync ranges ->
    with_op "sync"
      [
        ( "ranges",
          J.List
            (List.map (fun (lo, hi) -> J.List [ J.Int lo; J.Int hi ]) ranges) );
      ]
  | Stats -> with_op "stats" []
  | Metrics -> with_op "metrics" []
  | Shutdown -> with_op "shutdown" []

let str_field ?default name j =
  match J.member name j with
  | Some (J.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
  | None -> (
    match default with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "missing field %S" name))

let int_field ?default name j =
  match J.member name j with
  | Some (J.Int n) -> Ok n
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
  | None -> (
    match default with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "missing field %S" name))

let ( let* ) = Result.bind

let submit_of_json j =
  let d = default_submit in
  let* grid = str_field "grid" j in
  let* mode = str_field ~default:d.mode "mode" j in
  let* base = str_field ~default:d.base "base" j in
  let increase =
    match J.member "increase" j with Some (J.String s) -> Some s | _ -> None
  in
  let* max_candidates = int_field ~default:d.max_candidates "max_candidates" j in
  let single_line =
    match J.member "single_line" j with Some (J.Bool b) -> b | _ -> false
  in
  let* backend = str_field ~default:d.backend "backend" j in
  let timeout =
    match J.member "timeout" j with
    | Some (J.Float f) -> f
    | Some (J.Int n) -> float_of_int n
    | _ -> d.timeout
  in
  if not (List.mem mode [ "topo"; "state"; "ufdi" ]) then
    Error (Printf.sprintf "unknown mode %S" mode)
  else if not (List.mem base [ "opf"; "proportional"; "case-study" ]) then
    Error (Printf.sprintf "unknown base %S" base)
  else if not (List.mem backend [ "lp"; "smt"; "factors" ]) then
    Error (Printf.sprintf "unknown backend %S" backend)
  else
    Ok
      {
        grid;
        mode;
        base;
        increase;
        max_candidates;
        single_line;
        backend;
        timeout;
      }

let request_of_json j =
  let* () =
    match J.member "v" j with
    | None -> Ok () (* pre-versioned wire = version 1 *)
    | Some (J.Int v) when v >= 1 && v <= version -> Ok ()
    | Some (J.Int v) ->
      Error (Printf.sprintf "unsupported protocol version %d (speaking %d)" v version)
    | Some _ -> Error "field \"v\" must be an integer"
  in
  let* op = str_field "op" j in
  match op with
  | "submit" ->
    let* s = submit_of_json j in
    Ok (Submit s)
  | "submit_batch" -> (
    match J.member "items" j with
    | Some (J.List items) ->
      let rec parse acc = function
        | [] -> Ok (Submit_batch (List.rev acc))
        | item :: rest ->
          let* s = submit_of_json item in
          parse (s :: acc) rest
      in
      parse [] items
    | Some _ -> Error "field \"items\" must be a list"
    | None -> Error "missing field \"items\"")
  | "sync" -> (
    match J.member "ranges" j with
    | None -> Ok (Sync [])
    | Some (J.List ranges) ->
      let rec parse acc = function
        | [] -> Ok (Sync (List.rev acc))
        | J.List [ J.Int lo; J.Int hi ] :: rest when lo >= 0 && hi >= lo ->
          parse ((lo, hi) :: acc) rest
        | _ -> Error "field \"ranges\" must be a list of [lo, hi] pairs"
      in
      parse [] ranges
    | Some _ -> Error "field \"ranges\" must be a list")
  | "status" ->
    let* id = int_field "id" j in
    Ok (Status id)
  | "result" ->
    let* id = int_field "id" j in
    Ok (Result id)
  | "cancel" ->
    let* id = int_field "id" j in
    Ok (Cancel id)
  | "stats" -> Ok Stats
  | "metrics" -> Ok Metrics
  | "shutdown" -> Ok Shutdown
  | op -> Error (Printf.sprintf "unknown op %S" op)

(* clients may tag any request with a "request_id" of their own; the
   server echoes it (or a generated one) in the response *)
let request_id_of_json j =
  match J.member "request_id" j with Some (J.String s) -> Some s | _ -> None

(* ---- trace context ----

   An optional envelope-level ["trace"] object — {"id": trace-id,
   "parent": span-id} — correlates the spans a request produces across
   processes: the client (or the coordinator, for untagged requests)
   mints the trace id, and each hop records its spans under it and
   forwards the pair with its own span as the new parent.  Deliberately
   envelope-only: it never enters {!job_params}/{!job_key}, so a traced
   and an untraced submission of the same scenario share one cache
   entry.  Absent or malformed = no context (v0 clients keep working). *)

let trace_of_json j =
  match J.member "trace" j with
  | Some (J.Obj _ as t) -> (
    match J.member "id" t with
    | Some (J.String id) when id <> "" ->
      let parent =
        match J.member "parent" t with Some (J.String p) -> p | _ -> ""
      in
      Some (id, parent)
    | _ -> None)
  | _ -> None

let with_trace trace j =
  match (trace, j) with
  | None, _ | _, (J.Null | J.Bool _ | J.Int _ | J.Float _ | J.String _ | J.List _) -> j
  | Some (id, parent), J.Obj fields ->
    let t =
      J.Obj
        (("id", J.String id)
        :: (if parent = "" then [] else [ ("parent", J.String parent) ]))
    in
    J.Obj (("trace", t) :: List.remove_assoc "trace" fields)

let job_params s =
  [
    ("mode", s.mode);
    ("base", s.base);
    ("increase", Option.value ~default:"" s.increase);
    ("max_candidates", string_of_int s.max_candidates);
    ("single_line", if s.single_line then "1" else "0");
    ("backend", s.backend);
  ]

(* cached results embed attack-vector line indices numbered by the
   submission's file-row order, so the key folds that ordering in: a
   row-permuted copy of a solved grid misses (and recomputes) instead of
   hitting an entry whose indices name different rows of its file *)
let job_key (spec : Grid.Spec.t) s =
  let params =
    ("row-order", Store.Canonical.ordering spec.Grid.Spec.grid)
    :: job_params s
  in
  "job:" ^ Store.Canonical.key ~params spec
