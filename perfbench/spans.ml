(* The benchmark's own spans, recorded only in a traced run.  Every pass
   or request opens a root span under a fresh trace id; the calls it
   makes into the program's layers become child spans naming that root
   as parent, and the same (trace id, root span) context travels to the
   fleet with each request, so the merged trace nests bench ->
   coordinator -> shard -> solver.

   Spans are complete events with explicit trace/parent args rather than
   nested begin/end pairs, because the load loops run on threads of one
   domain, which share that domain's trace ring and context slot. *)

let lock = Mutex.create ()

let enable () =
  Obs.Clock.set Unix.gettimeofday;
  Obs.Trace.set_pid (Unix.getpid ());
  Obs.Trace.set_capacity (1 lsl 17);
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true

let disable () = Obs.Trace.set_enabled false

type ctx = (string * string) option  (* (trace id, root span id) *)

let record ~(ctx : ctx) ~args name t0 =
  let dur = Obs.Clock.now () -. t0 in
  let ids = match ctx with Some (t, p) -> [ ("trace", t); ("parent", p) ] | None -> [] in
  Mutex.protect lock (fun () -> Obs.Trace.complete ~args:(ids @ args) ~ts:t0 ~dur name)

(* [root name f] runs [f ctx] inside a root span; [ctx] is the context to
   forward with a request and to hand to {!call} ([None] when tracing is
   off).  With [install], the context is also installed for the program's
   own spans recorded on this domain meanwhile (single-threaded use only). *)
let root ?(args = []) ?(install = false) name f =
  if not (Obs.Trace.enabled ()) then f None
  else begin
    let tid = Obs.Trace.new_trace_id () and sid = Obs.Trace.new_span_id () in
    let ctx = Some (tid, sid) in
    let t0 = Obs.Clock.now () in
    Fun.protect
      ~finally:(fun () -> record ~ctx:(Some (tid, "")) ~args:(("span", sid) :: args) name t0)
      (fun () -> if install then Obs.Trace.with_context ctx (fun () -> f ctx) else f ctx)
  end

(* a child span of [ctx] around one call into a layer *)
let call ?(ctx = None) ?(args = []) name f =
  if not (Obs.Trace.enabled ()) then f ()
  else begin
    let t0 = Obs.Clock.now () in
    Fun.protect ~finally:(fun () -> record ~ctx ~args name t0) f
  end
