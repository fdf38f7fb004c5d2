(* selftest BENCH CLI BENCHMARK_JSON ROOT

   Runs the benchmark at tiny sizes and fails (exit 1) unless
   - every workload (those of BENCHMARK.json, and serve-warm), untraced,
     reports every end_to_end metric of BENCHMARK.json with its unit, and
     checks its answers as correct;
   - every workload, traced, reports every per_layer metric with its unit;
   - every workload fed one corrupted answer (--corrupt-answer) exits
     nonzero and reports correct = false with at least one failed
     operation. *)

module J = Obs.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      prerr_endline ("selftest: FAIL: " ^ s))
    fmt

let read path = In_channel.with_open_bin path In_channel.input_all

let metric_list j key =
  match J.member key j with
  | Some (J.List l) ->
    List.filter_map
      (fun m ->
        match (J.member "name" m, J.member "unit" m) with
        | Some (J.String n), Some (J.String u) -> Some (n, u)
        | _ -> None)
      l
  | _ -> []

let workloads j =
  match J.member "workloads" j with
  | Some (J.List l) ->
    List.filter_map (fun w -> match J.member "name" w with Some (J.String n) -> Some n | _ -> None) l
  | _ -> []

(* run the benchmark; return its exit code and parsed last stdout line *)
let run bench cli root work args =
  let out = Filename.concat work "selftest.out" in
  let cmd =
    Filename.quote_command bench
      ([ "--root"; root; "--cli"; cli; "--work-dir"; work; "--tiny"; "--seed"; "7"; "--seconds"; "1" ]
      @ args)
      ~stdout:out
  in
  let code = Sys.command cmd in
  let lines = String.split_on_char '\n' (String.trim (read out)) in
  Sys.remove out;
  let last = List.nth lines (List.length lines - 1) in
  (code, match J.of_string last with Ok j -> Some j | Error _ -> None)

let check_metrics ~what result expected =
  match Option.bind result (J.member "metrics") with
  | None -> fail "%s: no metrics object" what
  | Some metrics ->
    List.iter
      (fun (name, unit) ->
        match J.member name metrics with
        | None -> fail "%s: metric %s missing" what name
        | Some m -> (
          (match J.member "value" m with
          | Some (J.Float _ | J.Int _) -> ()
          | _ -> fail "%s: metric %s has no numeric value" what name);
          match J.member "unit" m with
          | Some (J.String u) when u = unit -> ()
          | _ -> fail "%s: metric %s does not carry unit %s" what name unit))
      expected

let () =
  match Sys.argv with
  | [| _; bench; cli; benchmark_json; root |] ->
    let spec =
      match J.of_string (read benchmark_json) with
      | Ok j -> j
      | Error e -> failwith ("BENCHMARK.json: " ^ e)
    in
    let work = "selftest-work" in
    if not (Sys.file_exists work) then Sys.mkdir work 0o755;
    List.iter
      (fun w ->
        let go traced extra = run bench cli root work ([ "--workload"; w; "--trace"; traced ] @ extra) in
        let code, r = go "0" [] in
        if code <> 0 then fail "%s: untraced run exited %d" w code;
        if Option.bind r (J.member "correct") <> Some (J.Bool true) then fail "%s: answers not correct" w;
        check_metrics ~what:(w ^ " untraced") r (metric_list spec "end_to_end");
        let code, r = go "1" [] in
        if code <> 0 then fail "%s: traced run exited %d" w code;
        check_metrics ~what:(w ^ " traced") r (metric_list spec "per_layer");
        let code, r = go "0" [ "--corrupt-answer" ] in
        if code = 0 then fail "%s: a corrupted answer was not refused" w;
        (match Option.bind r (J.member "correct") with
        | Some (J.Bool false) -> ()
        | _ -> fail "%s: corrupted run did not report correct = false" w);
        (match Option.bind r (J.member "failed") with
        | Some (J.Int n) when n >= 1 -> ()
        | _ -> fail "%s: corrupted run counted no failed operation" w);
        Printf.printf "selftest: %s ok\n%!" w)
      (* serve-warm is not in BENCHMARK.json (see README.md) but stays
         runnable, so it is tested too *)
      (workloads spec @ [ "serve-warm" ]);
    if !failures > 0 then exit 1
  | _ ->
    prerr_endline "usage: selftest BENCH CLI BENCHMARK_JSON ROOT";
    exit 2
