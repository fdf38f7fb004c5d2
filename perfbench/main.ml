(* perfbench: the repository's benchmark.

     perfbench.exe --workload sweep|serve-warm|serve-cold --seed N
                   --seconds S --trace 0|1
                   [--root DIR] [--cli EXE] [--work-dir DIR] [--tiny]
                   [--corrupt-answer]

   Runs one workload, checks every answer, and prints a human-readable
   report followed by one JSON line: {"correct", "attempted", "failed",
   "metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
   --trace 1 the run is repeated with tracing on and the metrics are the
   per-layer ones.  Exit code 0 only when every check passed.  See
   perfbench/README.md for the workloads and the metric table. *)

open Util

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload sweep|serve-warm|serve-cold --seed N \
     --seconds S --trace 0|1 [--root DIR] [--cli EXE] [--work-dir DIR] \
     [--tiny] [--corrupt-answer]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  root : string;
  cli : string;
  work_dir : string;
  tiny : bool;
  corrupt : bool;
}

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = 0;
        seconds = 10.;
        traced = false;
        root = ".";
        cli = "";
        work_dir = "_perfbench";
        tiny = false;
        corrupt = false;
      }
  in
  let int_arg v = match int_of_string_opt v with Some i -> i | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: r -> a := { !a with workload = v }; go r
    | "--seed" :: v :: r -> a := { !a with seed = int_arg v }; go r
    | "--seconds" :: v :: r ->
      a := { !a with seconds = (match float_of_string_opt v with Some f -> f | None -> usage ()) };
      go r
    | "--trace" :: v :: r -> a := { !a with traced = int_arg v <> 0 }; go r
    | "--root" :: v :: r -> a := { !a with root = v }; go r
    | "--cli" :: v :: r -> a := { !a with cli = v }; go r
    | "--work-dir" :: v :: r -> a := { !a with work_dir = v }; go r
    | "--tiny" :: r -> a := { !a with tiny = true }; go r
    | "--corrupt-answer" :: r -> a := { !a with corrupt = true }; go r
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let a = !a in
  if a.workload = "" then usage ();
  if a.cli = "" then
    { a with cli = Filename.concat a.root "_build/default/bin/topoguard_cli.exe" }
  else a

let result_line (r : Metrics.run) ~traced ~correct =
  let metrics = if traced then Metrics.per_layer else Metrics.end_to_end in
  let values = if traced then r.Metrics.layer else r.Metrics.e2e in
  J.Obj
    [
      ("correct", J.Bool correct);
      ("attempted", J.Int r.Metrics.attempted);
      ("failed", J.Int r.Metrics.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, unit) ->
               let v = Option.value ~default:0. (List.assoc_opt name values) in
               (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
             metrics) );
    ]

let () =
  let a = parse_args () in
  Obs.Clock.set Unix.gettimeofday;
  let seconds = Float.max 0.1 a.seconds in
  let trace_out =
    Filename.concat a.work_dir
      (Printf.sprintf "artifacts/trace-%s-seed%d.json" a.workload a.seed)
  in
  let run () =
    match a.workload with
    | "sweep" ->
      Sweep_wl.run ~root:a.root ~seed:a.seed ~seconds ~tiny:a.tiny ~traced:a.traced
        ~corrupt:a.corrupt ~trace_out
    | "serve-warm" ->
      Serve_wl.warm ~root:a.root ~cli:a.cli ~work_dir:a.work_dir ~seed:a.seed ~seconds
        ~tiny:a.tiny ~traced:a.traced ~corrupt:a.corrupt ~trace_out
    | "serve-cold" ->
      Serve_wl.cold ~cli:a.cli ~work_dir:a.work_dir ~seed:a.seed ~seconds ~tiny:a.tiny
        ~traced:a.traced ~corrupt:a.corrupt ~trace_out
    | w -> die "unknown workload %S" w
  in
  match run () with
  | exception Bench_error e ->
    note "error: %s" e;
    exit 1
  | r ->
    let correct = r.Metrics.failed = 0 && r.Metrics.problems = [] in
    List.iter (fun p -> say "CHECK FAILED: %s" p) r.Metrics.problems;
    say "attempted %d, failed %d" r.Metrics.attempted r.Metrics.failed;
    List.iter
      (fun (name, unit) ->
        match List.assoc_opt name r.Metrics.e2e with
        | Some v -> say "%-12s %14.6f %s" name v unit
        | None -> ())
      Metrics.end_to_end;
    if a.traced then begin
      List.iter
        (fun (name, unit) ->
          match List.assoc_opt name r.Metrics.layer with
          | Some v -> say "%-30s %14.6f %s" name v unit
          | None -> ())
        Metrics.per_layer;
      List.iter (fun (name, why) -> say "%-30s absent: %s" name why) r.Metrics.absent
    end;
    print_endline (J.to_string (result_line r ~traced:a.traced ~correct));
    exit (if correct then 0 else 1)
