(* Tests for lib/serve: protocol encode/decode roundtrips, job-key
   determinism, and an in-process server (on a detached domain, over a
   temp socket) exercised through the client: submit, await, cached
   resubmit, stats, cancel, shutdown, and the offline journal lookup. *)

module J = Obs.Json
module P = Serve.Protocol

let grid_text = Grid.Spec.print (Grid.Test_systems.case_study_1 ())

let submit_of t =
  {
    P.default_submit with
    grid = grid_text;
    max_candidates = 50;
    single_line = true;
    timeout = t;
  }

(* ---- protocol ---- *)

let roundtrip req =
  match P.request_of_json (P.json_of_request req) with
  | Ok r -> r
  | Error e -> Alcotest.failf "roundtrip: %s" e

let protocol_tests =
  [
    Alcotest.test_case "submit roundtrips through JSON" `Quick (fun () ->
        let s = { (submit_of 2.5) with P.increase = Some "3.5" } in
        match roundtrip (P.Submit s) with
        | P.Submit s' ->
          Alcotest.(check string) "grid" s.P.grid s'.P.grid;
          Alcotest.(check (option string)) "increase" s.P.increase s'.P.increase;
          Alcotest.(check bool) "single_line" s.P.single_line s'.P.single_line;
          Alcotest.(check int) "max_candidates" s.P.max_candidates s'.P.max_candidates;
          Alcotest.(check string) "backend" s.P.backend s'.P.backend;
          Alcotest.(check (float 1e-9)) "timeout" s.P.timeout s'.P.timeout
        | _ -> Alcotest.fail "wrong constructor");
    Alcotest.test_case "control ops roundtrip" `Quick (fun () ->
        List.iter
          (fun req ->
            Alcotest.(check bool) "same" true (roundtrip req = req))
          [ P.Status 7; P.Result 3; P.Cancel 12; P.Stats; P.Metrics;
            P.Shutdown ]);
    Alcotest.test_case "request_id extraction" `Quick (fun () ->
        Alcotest.(check (option string)) "present" (Some "abc")
          (P.request_id_of_json
             (J.Obj [ ("op", J.String "stats"); ("request_id", J.String "abc") ]));
        Alcotest.(check (option string)) "absent" None
          (P.request_id_of_json (J.Obj [ ("op", J.String "stats") ]));
        Alcotest.(check (option string)) "wrong type" None
          (P.request_id_of_json
             (J.Obj [ ("op", J.String "stats"); ("request_id", J.Int 3) ])));
    Alcotest.test_case "invalid enum values are rejected" `Quick (fun () ->
        let submit field value =
          J.Obj [ ("op", J.String "submit"); ("grid", J.String "x");
                  (field, value) ]
        in
        List.iter
          (fun j ->
            match P.request_of_json j with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted invalid request %s" (J.to_string j))
          [
            J.Obj [ ("op", J.String "warp") ];
            submit "mode" (J.String "sideways");
            submit "backend" (J.String "quantum");
            (* the retired formulations are refused, not remapped *)
            submit "backend" (J.String "lp");
            submit "backend" (J.String "smt");
            (* wrongly typed fields are errors, not silent defaults *)
            submit "increase" (J.Int 5);
            submit "increase" (J.String "abc");
            submit "increase" (J.String "1e999999999");
            submit "single_line" (J.String "true");
            submit "timeout" (J.String "1");
            J.Obj [ ("op", J.String "status") ];
          ];
        (* the one backend left is accepted, absent or named *)
        List.iter
          (fun j ->
            match P.request_of_json j with
            | Ok (P.Submit s) ->
              Alcotest.(check string) "backend" "factors" s.P.backend
            | Ok _ -> Alcotest.fail "wrong constructor"
            | Error e -> Alcotest.failf "rejected %s: %s" (J.to_string j) e)
          [
            J.Obj [ ("op", J.String "submit"); ("grid", J.String "x") ];
            submit "backend" (J.String "factors");
          ]);
    Alcotest.test_case "job key ignores the timeout" `Quick (fun () ->
        let spec = Grid.Test_systems.case_study_1 () in
        Alcotest.(check string) "timeout-independent"
          (P.job_key spec (submit_of 1.))
          (P.job_key spec (submit_of 99.)));
    Alcotest.test_case "job key depends on the increase override" `Quick
      (fun () ->
        let spec = Grid.Test_systems.case_study_1 () in
        let s = submit_of 0. in
        Alcotest.(check bool) "increase matters" false
          (P.job_key spec s = P.job_key spec { s with P.increase = Some "9" }));
    Alcotest.test_case "job key depends on the file's row order" `Quick
      (fun () ->
        (* results embed line indices in the submission's row order, so a
           row-permuted copy of the same grid must get its own key (miss
           and recompute) rather than a cache hit with misnumbered
           vectors *)
        let module N = Grid.Network in
        let spec = Grid.Test_systems.case_study_1 () in
        let g = spec.Grid.Spec.grid in
        let nl = N.n_lines g in
        let swap a i j =
          let x = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- x
        in
        let lines = Array.copy g.N.lines in
        swap lines 0 1;
        let meas = Array.copy g.N.meas in
        swap meas 0 1;
        swap meas nl (nl + 1);
        let spec' = { spec with Grid.Spec.grid = { g with N.lines; meas } } in
        let s = submit_of 0. in
        Alcotest.(check bool) "permuted rows change the key" false
          (P.job_key spec s = P.job_key spec' s);
        Alcotest.(check string) "stable for the same file"
          (P.job_key spec s) (P.job_key spec s));
  ]

(* ---- in-process server over a temp socket ---- *)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let expect_ok = function
  | Error e -> Alcotest.failf "rpc failed: %s" e
  | Ok resp -> (
    match J.member "ok" resp with
    | Some (J.Bool true) -> resp
    | _ -> Alcotest.failf "server error: %s" (J.to_string resp))

let int_field name j =
  match J.member name j with
  | Some (J.Int n) -> n
  | _ -> Alcotest.failf "missing int field %S in %s" name (J.to_string j)

let bool_field name j =
  match J.member name j with
  | Some (J.Bool b) -> b
  | _ -> Alcotest.failf "missing bool field %S in %s" name (J.to_string j)

let connect_retry path =
  let rec go n =
    match Serve.Client.connect path with
    | Ok c -> c
    | Error e ->
      if n = 0 then Alcotest.failf "connect: %s" e
      else begin
        Unix.sleepf 0.05;
        go (n - 1)
      end
  in
  go 100

let server_tests =
  [
    Alcotest.test_case "submit/await/cached-resubmit/stats/shutdown" `Slow
      (fun () ->
        let socket = tmp (Printf.sprintf "tg-serve-%d.sock" (Unix.getpid ())) in
        let journal = tmp (Printf.sprintf "tg-serve-%d.j" (Unix.getpid ())) in
        List.iter (fun p -> if Sys.file_exists p then Sys.remove p)
          [ socket; journal ];
        let cfg =
          { (Serve.Server.default_config ~socket_path:socket) with
            Serve.Server.journal = Some journal }
        in
        let server = Pool.detached (fun () -> Serve.Server.run cfg) in
        Fun.protect
          ~finally:(fun () ->
            List.iter (fun p -> if Sys.file_exists p then Sys.remove p)
              [ socket; journal ])
          (fun () ->
            let c = connect_retry socket in
            (* first submission computes *)
            let r1 = expect_ok (Serve.Client.submit c (submit_of 0.)) in
            Alcotest.(check bool) "first not cached" false (bool_field "cached" r1);
            let id1 = int_field "id" r1 in
            (match Serve.Client.await c ~id:id1 ~timeout:60. () with
            | Ok ("done", Some result) -> (
              match J.member "outcome" result with
              | Some (J.String "attack_found") -> ()
              | _ -> Alcotest.failf "unexpected result %s" (J.to_string result))
            | Ok (st, _) -> Alcotest.failf "terminal status %s" st
            | Error e -> Alcotest.failf "await: %s" e);
            (* identical resubmission answers from the store *)
            let r2 = expect_ok (Serve.Client.submit c (submit_of 0.)) in
            Alcotest.(check bool) "second cached" true (bool_field "cached" r2);
            (* a cached job still serves its result *)
            let id2 = int_field "id" r2 in
            (match Serve.Client.request c (P.Result id2) with
            | Ok resp ->
              Alcotest.(check bool) "has result" true
                (J.member "result" resp <> None)
            | Error e -> Alcotest.failf "result: %s" e);
            (* stats reflect both *)
            let stats = expect_ok (Serve.Client.request c P.Stats) in
            (match J.member "jobs" stats with
            | Some jobs ->
              Alcotest.(check int) "submitted" 2 (int_field "submitted" jobs);
              Alcotest.(check int) "cache hits" 1 (int_field "cache_hits" jobs);
              Alcotest.(check int) "done" 2 (int_field "done" jobs)
            | None -> Alcotest.fail "stats missing jobs");
            (* unknown job ids are errors, not crashes *)
            (match Serve.Client.request c (P.Status 999) with
            | Ok resp ->
              Alcotest.(check bool) "ok=false" false (bool_field "ok" resp)
            | Error e -> Alcotest.failf "status 999: %s" e);
            (* graceful shutdown via the protocol *)
            ignore (expect_ok (Serve.Client.request c P.Shutdown));
            Serve.Client.close c;
            (match Pool.Future.await server with
            | Ok () -> ()
            | Error e -> Alcotest.failf "server exit: %s" e);
            Alcotest.(check bool) "socket removed" false (Sys.file_exists socket);
            (* the journal now answers the same submission offline *)
            let spec = Grid.Test_systems.case_study_1 () in
            match
              Serve.Client.offline_lookup ~journal ~spec ~submit:(submit_of 0.)
            with
            | Ok (Some result) -> (
              match J.member "outcome" result with
              | Some (J.String "attack_found") -> ()
              | _ -> Alcotest.fail "offline result mismatch")
            | Ok None -> Alcotest.fail "offline lookup missed"
            | Error e -> Alcotest.failf "offline lookup: %s" e));
    Alcotest.test_case "cancel of a queued job and drain on shutdown" `Slow
      (fun () ->
        let socket =
          tmp (Printf.sprintf "tg-serve-c-%d.sock" (Unix.getpid ()))
        in
        if Sys.file_exists socket then Sys.remove socket;
        let cfg = Serve.Server.default_config ~socket_path:socket in
        let server = Pool.detached (fun () -> Serve.Server.run cfg) in
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists socket then Sys.remove socket)
          (fun () ->
            let c = connect_retry socket in
            (* occupy the single worker with a slow job (a seeded
               300-bus grid: seconds of single-line verification) so the
               next submission stays queued *)
            let slow =
              {
                (submit_of 0.) with
                P.grid = Grid.Spec.print (Grid.Gen.make ~seed:300 300);
                base = "proportional";
                max_candidates = 200;
              }
            in
            let r_slow = expect_ok (Serve.Client.submit c slow) in
            let id_slow = int_field "id" r_slow in
            (* distinct key from the slow job: different increase *)
            let queued = { (submit_of 0.) with P.increase = Some "2" } in
            let r_q = expect_ok (Serve.Client.submit c queued) in
            let id_q = int_field "id" r_q in
            (* cancel it while it waits for the worker *)
            let r_c = expect_ok (Serve.Client.request c (P.Cancel id_q)) in
            Alcotest.(check string) "cancelled immediately" "cancelled"
              (match J.member "status" r_c with
              | Some (J.String s) -> s
              | _ -> "?");
            (* cancel the running job too: cooperative, needs a probe *)
            ignore (expect_ok (Serve.Client.request c (P.Cancel id_slow)));
            (match Serve.Client.await c ~id:id_slow ~timeout:60. () with
            | Ok ("cancelled", _) -> ()
            | Ok (st, _) -> Alcotest.failf "slow job ended as %s" st
            | Error e -> Alcotest.failf "await slow: %s" e);
            ignore (expect_ok (Serve.Client.request c P.Shutdown));
            Serve.Client.close c;
            match Pool.Future.await server with
            | Ok () -> ()
            | Error e -> Alcotest.failf "server exit: %s" e));
    Alcotest.test_case "request ids, metrics exposition, access log" `Slow
      (fun () ->
        let socket =
          tmp (Printf.sprintf "tg-serve-m-%d.sock" (Unix.getpid ()))
        in
        let access = tmp (Printf.sprintf "tg-serve-m-%d.log" (Unix.getpid ())) in
        List.iter (fun p -> if Sys.file_exists p then Sys.remove p)
          [ socket; access ];
        let cfg =
          { (Serve.Server.default_config ~socket_path:socket) with
            Serve.Server.access_log = Some access }
        in
        let server = Pool.detached (fun () -> Serve.Server.run cfg) in
        Fun.protect
          ~finally:(fun () ->
            List.iter (fun p -> if Sys.file_exists p then Sys.remove p)
              [ socket; access ])
          (fun () ->
            let c = connect_retry socket in
            (* a client-supplied request id is echoed verbatim *)
            (match
               Serve.Client.rpc c
                 (J.Obj
                    [ ("op", J.String "stats"); ("request_id", J.String "abc-1") ])
             with
            | Ok resp ->
              Alcotest.(check string) "echoed" "abc-1"
                (match J.member "request_id" resp with
                | Some (J.String s) -> s
                | _ -> "?")
            | Error e -> Alcotest.failf "stats rpc: %s" e);
            (* a request without one gets a generated id *)
            let r0 = expect_ok (Serve.Client.request c P.Stats) in
            (match J.member "request_id" r0 with
            | Some (J.String _) -> ()
            | _ -> Alcotest.fail "no generated request_id");
            let sample_of text name =
              let v = ref None in
              List.iter
                (fun line ->
                  if String.length line > 0 && line.[0] <> '#' then
                    match String.split_on_char ' ' line with
                    | [ n; value ] when n = name ->
                      v := float_of_string_opt value
                    | _ -> ())
                (String.split_on_char '\n' text);
              match !v with
              | Some f -> f
              | None -> Alcotest.failf "metric %s not found" name
            in
            let scrape () =
              match
                J.member "metrics" (expect_ok (Serve.Client.request c P.Metrics))
              with
              | Some (J.String s) -> s
              | _ -> Alcotest.fail "metrics payload missing"
            in
            (* the registry is process-global (earlier test cases ran
               servers too), so counts are asserted as deltas *)
            let completed0 =
              sample_of (scrape ()) "topoguard_jobs_completed_total"
            in
            (* one computed job, one cached resubmission *)
            let r1 = expect_ok (Serve.Client.submit c (submit_of 0.)) in
            let id1 = int_field "id" r1 in
            (match Serve.Client.await c ~id:id1 ~timeout:60. () with
            | Ok ("done", Some _) -> ()
            | Ok (st, _) -> Alcotest.failf "terminal status %s" st
            | Error e -> Alcotest.failf "await: %s" e);
            let r2 = expect_ok (Serve.Client.submit c (submit_of 0.)) in
            Alcotest.(check bool) "cached" true (bool_field "cached" r2);
            (* metrics exposition: the completed counter matches the
               service histogram's +Inf bucket within one scrape *)
            let text = scrape () in
            let sample = sample_of text in
            let completed = sample "topoguard_jobs_completed_total" in
            Alcotest.(check (float 1e-9)) "two jobs completed" 2.
              (completed -. completed0);
            ignore (sample "topoguard_queue_depth");
            ignore (sample "topoguard_jobs_running");
            let inf_bucket =
              sample "topoguard_job_service_seconds_bucket{le=\"+Inf\"}"
            in
            Alcotest.(check (float 1e-9)) "+Inf bucket = completed" completed
              inf_bucket;
            ignore (expect_ok (Serve.Client.request c P.Shutdown));
            Serve.Client.close c;
            (match Pool.Future.await server with
            | Ok () -> ()
            | Error e -> Alcotest.failf "server exit: %s" e);
            (* every access-log line is one JSON object with the schema *)
            let ic = open_in access in
            let lines = ref [] in
            (try
               while true do
                 lines := input_line ic :: !lines
               done
             with End_of_file -> close_in ic);
            let records =
              List.rev_map
                (fun line ->
                  match J.of_string line with
                  | Ok j -> j
                  | Error e ->
                    Alcotest.failf "bad access-log line %S: %s" line e)
                !lines
            in
            let kind j =
              match J.member "kind" j with Some (J.String s) -> s | _ -> "?"
            in
            let requests = List.filter (fun j -> kind j = "request") records in
            let jobs = List.filter (fun j -> kind j = "job") records in
            Alcotest.(check bool) "has request records" true (requests <> []);
            Alcotest.(check int) "two terminal jobs" 2 (List.length jobs);
            List.iter
              (fun j ->
                List.iter
                  (fun f ->
                    if J.member f j = None then
                      Alcotest.failf "request record missing %S: %s" f
                        (J.to_string j))
                  [ "ts"; "request_id"; "verb"; "outcome"; "latency_s" ])
              requests;
            List.iter
              (fun j ->
                List.iter
                  (fun f ->
                    if J.member f j = None then
                      Alcotest.failf "job record missing %S: %s" f
                        (J.to_string j))
                  [ "ts"; "id"; "key"; "status"; "queue_wait_s"; "service_s" ])
              jobs;
            Alcotest.(check bool) "client-supplied id logged" true
              (List.exists
                 (fun j ->
                   J.member "request_id" j = Some (J.String "abc-1"))
                 requests)));
  ]

let () =
  Alcotest.run "serve"
    [ ("protocol", protocol_tests); ("server", server_tests) ]
