let magic = "topoguard-journal v1\n"

let c_compacted = Obs.Counter.make "journal.compacted_bytes"

type t = { fd : Unix.file_descr; mutable closed : bool }

type recovery = { records : (string * string) list; dropped_bytes : int }

let checksum key value =
  Printf.sprintf "%016Lx"
    (let h = ref 0xcbf29ce484222325L in
     let feed s =
       String.iter
         (fun c ->
           h :=
             Int64.mul
               (Int64.logxor !h (Int64.of_int (Char.code c)))
               0x100000001b3L)
         s
     in
     feed key;
     feed value;
     !h)

let encode ~key ~value =
  Printf.sprintf "r %d %d %s\n%s%s\n" (String.length key) (String.length value)
    (checksum key value) key value

(* parse a header line "r <klen> <vlen> <cksum>" *)
let parse_header line =
  match String.split_on_char ' ' line with
  | [ "r"; klen; vlen; ck ] -> (
    match (int_of_string_opt klen, int_of_string_opt vlen) with
    | Some k, Some v when k >= 0 && v >= 0 -> Some (k, v, ck)
    | _ -> None)
  | _ -> None

(* records recovered from [data], plus the length of the valid prefix *)
let parse data =
  let len = String.length data in
  let rec go ofs acc =
    if ofs >= len then (List.rev acc, ofs)
    else
      match String.index_from_opt data ofs '\n' with
      | None -> (List.rev acc, ofs)
      | Some nl -> (
        match parse_header (String.sub data ofs (nl - ofs)) with
        | None -> (List.rev acc, ofs)
        | Some (klen, vlen, ck) ->
          let body = nl + 1 in
          if body + klen + vlen + 1 > len then (List.rev acc, ofs)
          else
            let key = String.sub data body klen in
            let value = String.sub data (body + klen) vlen in
            if data.[body + klen + vlen] <> '\n' || checksum key value <> ck
            then (List.rev acc, ofs)
            else go (body + klen + vlen + 1) ((key, value) :: acc))
  in
  go 0 []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* recovery plus the byte length of the valid prefix (magic included) *)
let scan_internal path =
  if not (Sys.file_exists path) then Ok ({ records = []; dropped_bytes = 0 }, 0)
  else
    let data = read_file path in
    let len = String.length data in
    if len = 0 then Ok ({ records = []; dropped_bytes = 0 }, 0)
    else
      let ml = String.length magic in
      if len < ml then
        (* a crash while writing the magic line itself leaves a proper
           prefix of it: rewrite; anything else is a foreign file *)
        if data = String.sub magic 0 len then
          Ok ({ records = []; dropped_bytes = len }, 0)
        else
          Error
            (Printf.sprintf "%s: not a topoguard journal (bad magic/version)"
               path)
      else if String.sub data 0 ml <> magic then
        Error (Printf.sprintf "%s: not a topoguard journal (bad magic/version)" path)
      else
        let records, valid =
          let rs, ofs = parse (String.sub data ml (len - ml)) in
          (rs, ml + ofs)
        in
        Ok ({ records; dropped_bytes = len - valid }, valid)

let scan path = Result.map fst (scan_internal path)

(* Unix.write retries partial writes itself *)
let write_string fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let open_append path =
  match scan_internal path with
  | Error e -> Error e
  | Ok (recovery, valid) -> (
    try
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
      if valid = 0 then begin
        (* new or empty file: start with the magic line *)
        Unix.ftruncate fd 0;
        write_string fd magic
      end
      else Unix.ftruncate fd valid;
      ignore (Unix.lseek fd 0 Unix.SEEK_END);
      Ok ({ fd; closed = false }, recovery)
    with Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e)))

let append t ~key ~value =
  if t.closed then invalid_arg "Journal.append: closed";
  write_string t.fd (encode ~key ~value)

let close t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.fd
  end

type compaction = { live : int; dropped : int; reclaimed_bytes : int }

(* rewrite the journal keeping only the winning record per key (replay is
   last-write-wins, so everything a superseded record contributes is dead
   weight), in the order of each key's *last* occurrence — replaying the
   compacted file reproduces the exact final store state, including the
   recency order the LRU budget resolves ties by.  The rewrite goes to a
   sibling temp file that is fsynced and atomically renamed over the
   original: a crash at any point leaves either the old journal or the
   complete new one, never a torn file. *)
let compact path =
  match scan_internal path with
  | Error e -> Error e
  | Ok (recovery, valid) -> (
    let seen = Hashtbl.create 256 in
    let keep =
      (* walk newest-first, keep the first (= newest) record per key *)
      List.fold_left
        (fun acc (key, value) ->
          if Hashtbl.mem seen key then acc
          else begin
            Hashtbl.add seen key ();
            (key, value) :: acc
          end)
        []
        (List.rev recovery.records)
    in
    let tmp = path ^ ".compact" in
    try
      let fd =
        Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      write_string fd magic;
      List.iter (fun (key, value) -> write_string fd (encode ~key ~value)) keep;
      Unix.fsync fd;
      Unix.close fd;
      Unix.rename tmp path;
      let new_size =
        List.fold_left
          (fun acc (key, value) ->
            acc + String.length (encode ~key ~value))
          (String.length magic) keep
      in
      let old_size = valid + recovery.dropped_bytes in
      let reclaimed = max 0 (old_size - new_size) in
      Obs.Counter.add c_compacted reclaimed;
      Ok
        {
          live = List.length keep;
          dropped = List.length recovery.records - List.length keep;
          reclaimed_bytes = reclaimed;
        }
    with Unix.Unix_error (e, _, _) ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e)))
