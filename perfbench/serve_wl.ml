(* Workloads `serve-warm` and `serve-cold`, against a 2-shard
   `topoguard fleet --jobs 1 --journal-dir` on loopback, driven by the
   benchmark's own load loops through Serve.Client only.

   serve-warm: open loop at a fixed arrival rate over two connections;
   every arrival repeats a scenario answered during set-up, so every
   answer is a store hit returned inline.

   serve-cold: closed loop with two clients; every job is a distinct
   seeded generated grid, so it misses both job: and verify: entries and
   runs the solver. *)

open Util
module C = Serve.Client
module P = Serve.Protocol
module I = Topoguard.Impact
module Q = Numeric.Rat

(* "factors" is sent explicitly: the protocol default ("lp") cannot
   answer a cold 57-bus job inside the job timeout *)
let submit ~max_candidates ~increase text =
  {
    P.grid = text;
    mode = "topo";
    base = "opf";
    increase = Some increase;
    max_candidates;
    single_line = true;
    backend = "factors";
    timeout = 0.;
  }

(* About a quarter of what two connections sustained at the seed commit
   (~310 answers/s on 2 cores); at half that rate a noisy host already
   tipped the fleet into a growing backlog. *)
let warm_rate ~tiny = if tiny then 20. else 80.
let cold_sizes ~tiny = if tiny then [ 8; 10 ] else [ 30; 40; 50; 60; 70; 80; 90; 100 ]
let sample_every = 1.0

(* ---- client helpers ---- *)

let field name j = J.member name j

let id_of resp =
  match (field "ok" resp, field "id" resp) with
  | Some (J.Bool true), Some (J.Int id) -> Ok id
  | _ -> Error ("submit refused: " ^ J.to_string resp)

let await_result c id =
  match C.await c ~id ~timeout:120. () with
  | Ok ("done", Some r) -> Ok r
  | Ok (status, _) -> Error ("job ended " ^ status)
  | Error e -> Error e

(* ---- inputs ---- *)

let bundled ~tiny =
  if tiny then [ "5.grid"; "cs1.grid" ]
  else [ "5.grid"; "cs1.grid"; "cs2.grid"; "14.grid"; "30.grid"; "57.grid"; "118.grid" ]

(* every bundled grid at a few seeded increase targets (1.0% .. 9.9%) *)
let warm_inputs ~root ~seed ~tiny =
  let rng = Rng.make seed "serve-warm" in
  let per_grid = if tiny then 2 else 3 in
  List.concat_map
    (fun f ->
      let text = read_file (Filename.concat root (Filename.concat "data" f)) in
      let picks = Rng.shuffle rng (List.init 90 (fun i -> i + 10)) in
      List.filteri (fun i _ -> i < per_grid) picks
      |> List.map (fun p ->
             submit ~max_candidates:2 ~increase:(Printf.sprintf "%d.%d" (p / 10) (p mod 10)) text))
    (bundled ~tiny)

(* Pass p holds one grid of every size, in a seeded order.  A job
   verifies at most [cold_candidates] candidates, which keeps jobs short
   enough for many of them to finish in a run. *)
let cold_candidates = 4

let cold_inputs ~seed ~tiny ~passes =
  let rng = Rng.make seed "serve-cold" in
  List.concat
    (List.init passes (fun _ ->
         Rng.shuffle rng (cold_sizes ~tiny)
         |> List.map (fun n ->
                Grid.Spec.print (Grid.Gen.make ~seed:(Rng.grid_seed rng) n)
                |> submit ~max_candidates:cold_candidates ~increase:"2")))
  |> Array.of_list

(* ---- fleet set-up ---- *)

(* answer every warm scenario once; the answers are what every later
   arrival must reproduce byte for byte *)
let preload_answers (fleet : Fleet.t) scenarios =
  let c = Fleet.connect fleet.Fleet.endpoint in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let ids =
    List.map
      (fun s ->
        match C.submit c s with
        | Ok r -> ( match id_of r with Ok id -> id | Error e -> die "preload: %s" e)
        | Error e -> die "preload submit: %s" e)
      scenarios
  in
  List.map2
    (fun s id ->
      match await_result c id with
      | Ok r -> (s, J.to_string r)
      | Error e -> die "preload: %s" e)
    scenarios ids

let start ~cli ~dir ?trace ~preload () =
  rm_rf dir;
  let fleet = Fleet.start ~cli ~dir ?trace () in
  match
    timed (fun () ->
        match preload with Some scenarios -> preload_answers fleet scenarios | None -> [])
  with
  | dt, answers -> (fleet, fleet.Fleet.accept_s +. dt, answers)
  | exception e ->
    Fleet.stop fleet;
    raise e

(* set up three times (fresh journals each time) and keep the last *)
let setup_thrice ~cli ~dir ~preload =
  let rec go k acc =
    let fleet, s, answers = start ~cli ~dir ~preload () in
    if k = 1 then (fleet, median (s :: acc), answers)
    else begin
      Fleet.stop fleet;
      go (k - 1) (s :: acc)
    end
  in
  go 3 []

(* ---- load phases ---- *)

type sample = {
  k : int;
  start : float;  (* warm: the arrival's due time; cold: the submit call *)
  sent : float;
  idle : bool;  (* warm: the connection was free before the due time *)
  submit_s : float;
  answered : float;
  error : string option;
}

type phase = {
  samples : sample array;
  answers : (int * J.t) list;  (* cold: the result of every answered job *)
  depths : int list;
  t0 : float;
  window : Fleet.scrape;  (* shard and coordinator counters over the phase *)
  client_window : Obs.snapshot;  (* this process's own counters *)
}

let lat_ms s = 1000. *. (s.answered -. s.start)
let answered_ok ph = Array.to_list ph.samples |> List.filter (fun s -> s.error = None)

let sleep_until t =
  let d = t -. now () in
  if d > 0. then Unix.sleepf d

(* Counter windows around a load phase, with the queue depth read at both
   ends.  [sample] also samples the depth every [sample_every] seconds
   meanwhile, on a connection of its own.  A stats scrape stalls the
   coordinator for milliseconds, which the warm latencies would show, so
   untraced serve-warm runs read the depth only at the ends. *)
let with_window ~sample (fleet : Fleet.t) f =
  let c = Fleet.connect fleet.Fleet.endpoint in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let before = Fleet.scrape c and client_before = Obs.snapshot () in
  let stop = Atomic.make false and depths = ref [ before.Fleet.depth ] in
  let sampler () =
    let s = Fleet.connect fleet.Fleet.endpoint in
    let next = ref (now () +. sample_every) in
    while not (Atomic.get stop) do
      if now () >= !next then begin
        depths := (Fleet.scrape s).Fleet.depth :: !depths;
        next := !next +. sample_every
      end;
      Unix.sleepf 0.01
    done;
    C.close s
  in
  let sampler = if sample then Some (Thread.create sampler ()) else None in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Option.iter Thread.join sampler)
      f
  in
  let after = Fleet.scrape c in
  ( r,
    List.rev (after.Fleet.depth :: !depths),
    Fleet.diff_scrape ~before ~after,
    Obs.diff ~before:client_before ~after:(Obs.snapshot ()) )

(* open loop: arrival k is due at t0 + k / rate whatever the backlog; two
   connections take arrivals in order *)
let warm_phase ~sample (fleet : Fleet.t) answers ~rate ~seconds ~seed =
  let scenarios = Array.of_list answers in
  let w = Array.length scenarios in
  let n = max 1 (int_of_float (rate *. seconds)) in
  let rng = Rng.make seed "serve-warm-order" in
  let order =
    Array.concat
      (List.init ((n / w) + 1) (fun _ -> Array.of_list (Rng.shuffle rng (List.init w Fun.id))))
  in
  let slots = Array.make n None in
  let next = Atomic.make 0 in
  let run () =
    let t0 = now () +. 0.02 in
    let worker () =
      let c = Fleet.connect fleet.Fleet.endpoint in
      let rec loop () =
        let k = Atomic.fetch_and_add next 1 in
        if k < n then begin
          let due = t0 +. (float_of_int k /. rate) in
          let idle = now () < due in
          sleep_until due;
          let sent = now () in
          let s, expected = scenarios.(order.(k)) in
          (* the latency ends at the inline answer (the submit response);
             the result is fetched afterwards, only to be checked *)
          let sample =
            Spans.root ~args:[ ("arrival", string_of_int k) ] "bench.warm.request" @@ fun trace ->
            let r = Spans.call ~ctx:trace "serve.Client.submit" (fun () -> C.submit ?trace c s) in
            let answered = now () in
            let error =
              match r with
              | Error e -> Some e
              | Ok resp -> (
                match (id_of resp, field "cached" resp) with
                | Error e, _ -> Some e
                | Ok _, cached when cached <> Some (J.Bool true) -> Some "warm arrival was not a cache hit"
                | Ok id, _ -> (
                  match
                    Spans.call ~ctx:trace "serve.Client.request" (fun () -> C.request ?trace c (P.Result id))
                  with
                  | Error e -> Some e
                  | Ok r -> (
                    match field "result" r with
                    | Some got when J.to_string got = expected -> None
                    | Some got ->
                      Some (Printf.sprintf "answer %s differs from the preload's %s" (J.to_string got) expected)
                    | None -> Some ("no result: " ^ J.to_string r))))
            in
            { k; start = due; sent; idle; submit_s = answered -. sent; answered; error }
          in
          slots.(k) <- Some sample;
          loop ()
        end
      in
      loop ();
      C.close c
    in
    List.iter Thread.join (List.init 2 (fun _ -> Thread.create worker ()));
    t0
  in
  let t0, depths, window, client_window = with_window ~sample fleet run in
  {
    samples = Array.map Option.get slots;
    answers = [];
    depths;
    t0;
    window;
    client_window;
  }

(* closed loop: two clients, each submits its next grid only once the
   previous answer arrived; jobs are taken until [seconds] have passed *)
let cold_phase (fleet : Fleet.t) inputs ~seconds =
  let n = Array.length inputs in
  let slots = Array.make n None and results = Array.make n None in
  let next = Atomic.make 0 in
  let run () =
    let t0 = now () in
    let t_end = t0 +. seconds in
    let worker () =
      let c = Fleet.connect fleet.Fleet.endpoint in
      let rec loop () =
        if now () < t_end then begin
          let k = Atomic.fetch_and_add next 1 in
          if k < n then begin
            let start = now () in
            let submit_s, error =
              Spans.root ~args:[ ("job", string_of_int k) ] "bench.cold.job" @@ fun trace ->
              let dt, r =
                timed (fun () -> Spans.call ~ctx:trace "serve.Client.submit" (fun () -> C.submit ?trace c inputs.(k)))
              in
              ( dt,
                match Result.bind r id_of with
                | Error e -> Some e
                | Ok id -> (
                  match Spans.call ~ctx:trace "serve.Client.await" (fun () -> await_result c id) with
                  | Ok r ->
                    results.(k) <- Some r;
                    None
                  | Error e -> Some e) )
            in
            slots.(k) <- Some { k; start; sent = start; idle = false; submit_s; answered = now (); error };
            loop ()
          end
        end
      in
      loop ();
      C.close c
    in
    List.iter Thread.join (List.init 2 (fun _ -> Thread.create worker ()));
    t0
  in
  let t0, depths, window, client_window = with_window ~sample:true fleet run in
  let taken = min n (Atomic.get next) in
  if taken >= n then note "serve-cold ran out of prepared inputs (%d)" n;
  {
    samples = Array.init taken (fun k -> Option.get slots.(k));
    answers = List.filter_map (fun k -> Option.map (fun r -> (k, r)) results.(k)) (List.init taken Fun.id);
    depths;
    t0;
    window;
    client_window;
  }

(* ---- checks ---- *)

let pooled (s : Fleet.scrape) = merge_snapshots (List.map snd s.Fleet.per_shard)

let work_done_warm ph ~arrivals =
  let problems = ref [] in
  List.iter
    (fun (name, w) ->
      let solves = Layers.opf_solves w in
      if solves <> 0 then
        problems := Printf.sprintf "%s ran %d OPF solve(s) on the warm path" name solves :: !problems)
    ph.window.Fleet.per_shard;
  let all = pooled ph.window in
  let hits = counter all "store.hit" and misses = counter all "store.miss" in
  if misses <> 0 || hits = 0 then
    problems := Printf.sprintf "store hit ratio %d/%d is not 1.0" hits (hits + misses) :: !problems;
  if counter all "serve.jobs.cache_hits" <> arrivals then
    problems :=
      Printf.sprintf "%d cache-hit job(s) for %d arrivals" (counter all "serve.jobs.cache_hits") arrivals
      :: !problems;
  List.rev !problems

let work_done_cold ph =
  List.filter_map
    (fun (name, w) ->
      match counter w "serve.jobs.cache_hits" with
      | 0 -> None
      | h -> Some (Printf.sprintf "%s answered %d cold job(s) from the store (job: hits)" name h))
    ph.window.Fleet.per_shard

(* a seeded sample of cold answers must equal an in-process
   Impact.analyze built with the configuration the server builds for that
   submission *)
let check_cold inputs ph ~seed ~tiny ~corrupt =
  let rng = Rng.make seed "serve-cold-check" in
  let picked =
    List.filteri (fun i _ -> i < if tiny then 1 else 3) (Rng.shuffle rng ph.answers)
  in
  List.filter_map
    (fun (i, (k, got)) ->
      let s = inputs.(k) in
      let spec =
        match Grid.Spec.parse s.P.grid with Ok x -> x | Error e -> die "check parse: %s" e
      in
      let spec =
        { spec with Grid.Spec.min_increase_pct = Q.of_decimal_string (Option.get s.P.increase) }
      in
      let base =
        match Attack.Base_state.of_opf spec.Grid.Spec.grid with
        | Ok b -> b
        | Error e -> die "check base state: %s" e
      in
      let config =
        {
          I.default_config with
          I.mode = Attack.Encoder.Topology_only;
          backend = I.Fast_factors;
          max_candidates = s.P.max_candidates;
          use_closed_form = true;
          max_topology_changes = Some 1;
          jobs = 1;
        }
      in
      let want = J.to_string (Answer.of_outcome (I.analyze ~config ~scenario:spec ~base ())) in
      let got = J.to_string (if corrupt && i = 0 then Answer.corrupt got else got) in
      if got = want then None
      else Some (Printf.sprintf "cold job %d: served %s, in-process %s" k got want))
    (List.mapi (fun i x -> (i, x)) picked)

(* ---- metrics ---- *)

let passes_of ph ~size =
  let samples = Array.to_list ph.samples in
  let by_pass = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace by_pass (s.k / size) (s :: Option.value ~default:[] (Hashtbl.find_opt by_pass (s.k / size)))) samples;
  Hashtbl.fold
    (fun _ ss acc ->
      if List.length ss = size then
        let first = List.fold_left (fun m s -> Float.min m s.start) infinity ss in
        let last = List.fold_left (fun m s -> Float.max m s.answered) neg_infinity ss in
        (last -. first) :: acc
      else acc)
    by_pass []

(* Latency median and tail.  With [slices] > 1 the phase is cut into that
   many equal spans of arrival time, each span gets its own median and
   tail, and the lower quartile over the spans is reported: host noise on
   a shared 2-core machine comes in bursts of seconds, and this sets aside
   the spans it hit as long as a quarter of them stayed clear. *)
let latency ph ~slices ok =
  let span = List.fold_left (fun m s -> Float.max m (s.start -. ph.t0)) 0. ok +. 1e-9 in
  let per_slice =
    List.init slices (fun w ->
        List.filter_map
          (fun s ->
            let i = min (slices - 1) (int_of_float (float_of_int slices *. (s.start -. ph.t0) /. span)) in
            if i = w then Some (lat_ms s) else None)
          ok)
    |> List.filter (fun l -> l <> [])
  in
  match per_slice with
  | [ lats ] ->
    let t = tail lats in
    say "lat_tail_ms: %s" (describe_tail t);
    (median lats, t.value)
  | _ ->
    let medians = List.map median per_slice and tails = List.map tail per_slice in
    say "latency per time slice (median / tail ms): [%s]; tail of a slice: %s"
      (String.concat " " (List.map2 (fun m t -> Printf.sprintf "%.2f/%.1f" m t.value) medians tails))
      (describe_tail (List.hd tails));
    (quantile medians 0.25, quantile (List.map (fun t -> t.value) tails) 0.25)

let e2e ~setup ~pass_size ~slices ph =
  let ok = answered_ok ph in
  let p50, tail_ms = latency ph ~slices ok in
  let wall = List.fold_left (fun m s -> Float.max m s.answered) ph.t0 ok -. ph.t0 in
  let passes = passes_of ph ~size:pass_size in
  say "answered %d of %d; %d complete pass(es) of %d" (List.length ok) (Array.length ph.samples)
    (List.length passes) pass_size;
  say "queue depth samples (phase start, every %.0f s if sampled, phase end): [%s]" sample_every
    (String.concat " " (List.map string_of_int ph.depths));
  [
    ("setup_s", setup);
    ("sweep_s", median passes);
    ("jobs_per_s", float_of_int (List.length ok) /. Float.max wall 1e-9);
    ("lat_p50_ms", p50);
    ("lat_tail_ms", tail_ms);
  ]

(* On the 2-core test host a free connection wakes up to ~5 ms late at
   p99 while the fleet is busy; four times that is a generator fault. *)
let generator_slack_ms = 20.

(* Generator honesty: how late arrivals were sent, and whether the
   generator itself fell behind its schedule -- a free connection waking
   late, which no server can cause -- so that a slow bench process is
   never reported as a slow server. *)
let lateness ph =
  let all = Array.to_list ph.samples in
  let late = List.map (fun s -> 1000. *. (s.sent -. s.start)) all in
  let own = List.filter_map (fun s -> if s.idle then Some (1000. *. (s.sent -. s.start)) else None) all in
  let p50 = median late and mx = List.fold_left Float.max 0. late in
  let own_p99 = if own = [] then 0. else quantile own 0.99 in
  let summary =
    Printf.sprintf
      "generator lateness: p50 %.3f ms, max %.3f ms; free connections woke up late by p99 %.3f ms over %d arrival(s)"
      p50 mx own_p99 (List.length own)
  in
  let fault =
    (* judged only when the connections were mostly free: a backlog is
       the server's doing *)
    if own_p99 > generator_slack_ms && List.length own >= List.length all / 2 then
      Some
        (Printf.sprintf
           "the generator fell behind its own schedule (free-connection wake-up p99 %.1f ms > %.0f ms)"
           own_p99 generator_slack_ms)
    else None
  in
  ((p50, mx), summary, fault)

(* a warm submission through the coordinator, minus the same submission
   sent straight to the shard that owns it on the ring; the second value
   counts submissions that were not cache hits at that owner *)
let hop_probe (fleet : Fleet.t) scenarios =
  let ring = Cluster.Ring.create (List.map fst fleet.Fleet.shard_endpoints) in
  let via = Fleet.connect fleet.Fleet.endpoint in
  let direct = List.map (fun (name, ep) -> (name, Fleet.connect ep)) fleet.Fleet.shard_endpoints in
  Fun.protect ~finally:(fun () -> C.close via; List.iter (fun (_, c) -> C.close c) direct) @@ fun () ->
  let through = ref [] and straight = ref [] and misrouted = ref 0 in
  let time c s =
    let dt, r = timed (fun () -> Spans.call "bench.hop.submit" (fun () -> C.submit c s)) in
    (match r with Ok resp when field "cached" resp = Some (J.Bool true) -> () | _ -> incr misrouted);
    1000. *. dt
  in
  for _ = 1 to 3 do
    List.iter
      (fun s ->
        let spec = match Grid.Spec.parse s.P.grid with Ok x -> x | Error e -> die "hop parse: %s" e in
        let owner = Option.get (Cluster.Ring.owner ring (P.job_key spec s)) in
        through := time via s :: !through;
        straight := time (List.assoc owner direct) s :: !straight)
      scenarios
  done;
  (median !through -. median !straight, !misrouted)

(* the per-layer metrics of a traced serve phase *)
let serve_layers ph ~untraced ~probe_inputs ~fleet ~hop_scenarios ~is_warm =
  let shards = pooled ph.window in
  let ok = answered_ok ph in
  let lats = List.map lat_ms ok and jobs = List.length ok in
  let hits = counter shards "store.hit" and misses = counter shards "store.miss" in
  let submitted = List.map (fun (_, w) -> counter w "serve.jobs.submitted") ph.window.Fleet.per_shard in
  let skew =
    let total = List.fold_left ( + ) 0 submitted in
    if total = 0 then 0.
    else float_of_int (List.fold_left max 0 submitted * List.length submitted) /. float_of_int total
  in
  let ms_q name q = 1000. *. hist_q shards name q in
  let backoff_ms, polls =
    match hist ph.client_window "client.await.backoff.seconds" with
    | Some h when jobs > 0 && not is_warm ->
      (1000. *. h.Obs.h_sum /. float_of_int jobs, (float_of_int h.Obs.h_count /. float_of_int jobs) +. 1.)
    | _ -> (0., if is_warm then 0. else 1.)
  in
  let hop, misrouted = hop_probe fleet hop_scenarios in
  let (late_p50, late_max), _, _ = if is_warm then lateness ph else ((0., 0.), "", None) in
  let layer =
    Layers.probes probe_inputs
    @ Layers.of_window shards
    @ [
        ("store.hit_ratio", ratio hits (hits + misses));
        ("store.inserts", float_of_int (counter shards "store.insert"));
        ("cluster.hop_ms", hop);
        ("cluster.route_ms", 1000. *. hist_q ph.window.Fleet.coordinator "cluster.route.seconds" 0.5);
        ("cluster.shard_skew", skew);
        ("serve.submit_ms", 1000. *. median (List.map (fun s -> s.submit_s) ok));
        ("serve.queue_wait_ms.p50", ms_q "serve.job.wait_seconds" 0.5);
        ("serve.queue_wait_ms.p99", ms_q "serve.job.wait_seconds" 0.99);
        ("serve.service_ms.p50", ms_q "serve.job.service_seconds" 0.5);
        ("serve.service_ms.p99", ms_q "serve.job.service_seconds" 0.99);
        ( "serve.await_overhead_ms",
          mean lats
          -. (1000. *. hist_mean shards "serve.job.wait_seconds")
          -. (1000. *. hist_mean shards "serve.job.service_seconds") );
        ("client.backoff_ms", backoff_ms);
        ("client.polls", polls);
        ("serve.queue_depth_max", float_of_int (List.fold_left max 0 ph.depths));
        ("generator.lateness_ms.p50", late_p50);
        ("generator.lateness_ms.max", late_max);
        ( "obs.trace_overhead",
          (median lats /. median (List.map lat_ms (answered_ok untraced))) -. 1. );
      ]
  in
  let absent =
    Layers.empty_sources shards
    @ List.map
        (fun n -> (n, "the service answers single targets: no analyze_sweep call"))
        [ "core.sweep_ms.bundled"; "core.sweep_ms.generated" ]
    @
    if is_warm then
      List.map
        (fun n -> (n, "warm answers are inline: the bench never awaits a job"))
        [ "client.polls"; "client.backoff_ms" ]
    else
      List.map
        (fun n -> (n, "closed loop: no arrival schedule"))
        [ "generator.lateness_ms.p50"; "generator.lateness_ms.max" ]
  in
  let problems =
    if misrouted = 0 then []
    else [ Printf.sprintf "hop probe: %d submission(s) were not cache hits at their ring owner" misrouted ]
  in
  (layer, absent, problems)

(* ---- the two workloads ---- *)

let count_failed ph = Array.fold_left (fun n s -> if s.error = None then n else n + 1) 0 ph.samples

let first_errors ph =
  Array.to_list ph.samples
  |> List.filter_map (fun s -> Option.map (Printf.sprintf "request %d: %s" s.k) s.error)
  |> List.filteri (fun i _ -> i < 5)

(* Set up three times and measure untraced; with [traced], measure again
   on a fleet started with --trace, with the bench's own spans on, and
   take the per-layer metrics from that second phase.  [checks] returns
   the failed checks of a phase and how many answers it found wrong. *)
let run_workload ~cli ~work_dir ~traced ~trace_out ~preload ~phase ~pass_size ~slices ~checks
    ~layers =
  let dir = Filename.concat work_dir "fleet" in
  let fleet, setup, answers = setup_thrice ~cli ~dir ~preload in
  let ph = Fun.protect ~finally:(fun () -> Fleet.stop fleet) (fun () -> phase ~traced:false fleet answers) in
  let e2e = e2e ~setup ~pass_size ~slices ph in
  let problems, wrong = checks ~traced:false ph in
  let base =
    {
      Metrics.e2e;
      layer = [];
      absent = [];
      attempted = Array.length ph.samples;
      failed = count_failed ph + wrong;
      problems;
    }
  in
  if not traced then base
  else begin
    let fleet, _, answers = start ~cli ~dir ~trace:(Filename.concat dir "trace.json") ~preload () in
    Spans.enable ();
    let tr, (layer, absent, layer_problems) =
      Fun.protect
        ~finally:(fun () ->
          Spans.disable ();
          Fleet.stop fleet)
        (fun () ->
          let tr = phase ~traced:true fleet answers in
          (tr, layers ~fleet tr ~untraced:ph))
    in
    Layers.write_trace ~out:trace_out (Fleet.trace_files fleet);
    let traced_problems, traced_wrong = checks ~traced:true tr in
    {
      base with
      Metrics.layer;
      absent;
      attempted = base.Metrics.attempted + Array.length tr.samples;
      failed = base.Metrics.failed + count_failed tr + traced_wrong;
      problems = problems @ traced_problems @ layer_problems;
    }
  end

let warm ~root ~cli ~work_dir ~seed ~seconds ~tiny ~traced ~corrupt ~trace_out =
  let scenarios = warm_inputs ~root ~seed ~tiny in
  let rate = warm_rate ~tiny in
  let phase ~traced fleet answers =
    let answers =
      (* the self-test's fault: one preload answer is altered, so every
         arrival of that scenario must be caught *)
      if corrupt then
        List.mapi
          (fun i (s, a) ->
            if i > 0 then (s, a)
            else (s, match J.of_string a with Ok j -> J.to_string (Answer.corrupt j) | Error _ -> a ^ "!"))
          answers
      else answers
    in
    (* a phase the generator could not keep on schedule is measured once more *)
    let rec attempt k =
      let ph = warm_phase ~sample:traced fleet answers ~rate ~seconds ~seed in
      match lateness ph with
      | _, _, Some fault when k = 1 ->
        say "serve-warm: measuring again: %s" fault;
        attempt 2
      | _ -> ph
    in
    attempt 1
  in
  let checks ~traced:_ ph =
    let _, summary, fault = lateness ph in
    say "%s" summary;
    (Option.to_list fault @ work_done_warm ph ~arrivals:(Array.length ph.samples) @ first_errors ph, 0)
  in
  let layers ~fleet ph ~untraced =
    serve_layers ph ~untraced ~fleet ~is_warm:true ~hop_scenarios:scenarios
      ~probe_inputs:(List.map (fun s -> (s.P.grid, s)) scenarios)
  in
  let r =
    run_workload ~cli ~work_dir ~traced ~trace_out ~preload:(Some scenarios) ~phase
      ~pass_size:(List.length scenarios) ~slices:(if tiny then 1 else 10) ~checks ~layers
  in
  say "serve-warm: %.0f arrivals/s over %.1f s, %d scenarios" rate seconds (List.length scenarios);
  r

let cold ~cli ~work_dir ~seed ~seconds ~tiny ~traced ~corrupt ~trace_out =
  (* prepared grids for about twice the throughput seen at the seed commit
     (tiny jobs run far faster); a phase that runs out stops early, with a
     note *)
  let pass_size = List.length (cold_sizes ~tiny) in
  let per_s = if tiny then 80. else 7. in
  let passes = max 2 (int_of_float (Float.ceil (seconds *. per_s /. float_of_int pass_size))) in
  (* the traced phase gets grids of its own: every job must be cold *)
  let inputs ~traced = cold_inputs ~seed:(if traced then seed + 1_000_003 else seed) ~tiny ~passes in
  let untraced_inputs = inputs ~traced:false in
  let traced_inputs = if traced then inputs ~traced:true else [||] in
  let inputs ~traced = if traced then traced_inputs else untraced_inputs in
  let phase ~traced fleet _ = cold_phase fleet (inputs ~traced) ~seconds in
  let checks ~traced ph =
    let wrong = check_cold (inputs ~traced) ph ~seed ~tiny ~corrupt:(corrupt && not traced) in
    (work_done_cold ph @ first_errors ph @ wrong, List.length wrong)
  in
  let layers ~fleet ph ~untraced =
    let first16 l = List.filteri (fun i _ -> i < 16) l in
    serve_layers ph ~untraced ~fleet ~is_warm:false
      ~hop_scenarios:(first16 (List.map (fun (k, _) -> traced_inputs.(k)) ph.answers))
      ~probe_inputs:(List.map (fun s -> (s.P.grid, s)) (first16 (Array.to_list traced_inputs)))
  in
  let r =
    run_workload ~cli ~work_dir ~traced ~trace_out ~preload:None ~phase ~pass_size ~slices:1 ~checks
      ~layers
  in
  say "serve-cold: 2 closed-loop clients over %.1f s" seconds;
  r
