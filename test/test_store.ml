(* Tests for lib/store: canonical-key invariance under file-row
   permutation, key sensitivity to single-field mutations, LRU byte-budget
   eviction, journal crash recovery (truncation at every byte offset of
   the tail record), and the cache facade with persistence. *)

module Q = Numeric.Rat
module N = Grid.Network
module C = Store.Canonical

let q = Q.of_ints

(* ---- permutation helpers ---- *)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Permute the line rows of a network (together with their index-linked
   forward/backward flow-measurement rows) plus the generator and load
   rows — the network-level image of shuffling those sections of a .grid
   file. *)
let permute_network seed (g : N.t) =
  let st = Random.State.make [| seed |] in
  let nl = Array.length g.N.lines in
  let perm = Array.init nl Fun.id in
  shuffle st perm;
  let lines = Array.init nl (fun i -> g.N.lines.(perm.(i))) in
  let meas =
    Array.init (Array.length g.N.meas) (fun k ->
        if k < nl then g.N.meas.(perm.(k)) (* forward flow of line k *)
        else if k < 2 * nl then g.N.meas.(nl + perm.(k - nl)) (* backward *)
        else g.N.meas.(k) (* injection: indexed by bus, untouched *))
  in
  let gens = Array.copy g.N.gens in
  shuffle st gens;
  let loads = Array.copy g.N.loads in
  shuffle st loads;
  { g with N.lines; meas; gens; loads }

let permute_spec seed (spec : Grid.Spec.t) =
  { spec with Grid.Spec.grid = permute_network seed spec.Grid.Spec.grid }

let ieee14 () =
  match Grid.Spec.parse (Grid.Spec.print (Grid.Test_systems.ieee 14)) with
  | Ok s -> s
  | Error e -> Alcotest.failf "ieee14 roundtrip: %s" e

let case5 () = Grid.Test_systems.case_study_1 ()

let params = [ ("mode", "topo"); ("base", "opf") ]

(* ---- canonical-key invariance ---- *)

let canonical_tests =
  [
    Alcotest.test_case "permuted .grid file yields identical key" `Quick
      (fun () ->
        (* roundtrip the permuted spec through the text format so the
           comparison is between two genuinely reordered .grid files *)
        List.iter
          (fun spec ->
            let k0 = C.key ~params spec in
            for seed = 1 to 10 do
              let printed = Grid.Spec.print (permute_spec seed spec) in
              match Grid.Spec.parse printed with
              | Error e -> Alcotest.failf "reparse failed: %s" e
              | Ok spec' ->
                Alcotest.(check string)
                  (Printf.sprintf "seed %d" seed)
                  k0 (C.key ~params spec')
            done)
          [ case5 (); ieee14 () ]);
    Alcotest.test_case "params are order-insensitive" `Quick (fun () ->
        let spec = case5 () in
        Alcotest.(check string)
          "sorted = reversed"
          (C.key ~params spec)
          (C.key ~params:(List.rev params) spec));
    Alcotest.test_case "different params change the key" `Quick (fun () ->
        let spec = case5 () in
        Alcotest.(check bool)
          "mode matters" false
          (C.key ~params spec
          = C.key ~params:[ ("mode", "state"); ("base", "opf") ] spec));
    Alcotest.test_case "verify_key separates topology and loads" `Quick
      (fun () ->
        let spec = case5 () in
        let g = spec.Grid.Spec.grid in
        let mapped = Array.make (N.n_lines g) true in
        let loads = Array.make g.N.n_buses (q 1 10) in
        let k0 = C.verify_key ~mapped ~loads g in
        let mapped' = Array.copy mapped in
        mapped'.(2) <- false;
        let k1 = C.verify_key ~mapped:mapped' ~loads g in
        let loads' = Array.copy loads in
        loads'.(1) <- q 2 10;
        let k2 = C.verify_key ~mapped ~loads:loads' g in
        Alcotest.(check bool) "topology matters" false (k0 = k1);
        Alcotest.(check bool) "loads matter" false (k0 = k2);
        Alcotest.(check string)
          "deterministic" k0
          (C.verify_key ~mapped ~loads g));
    Alcotest.test_case "verify_key names the physical topology, not row bits"
      `Quick (fun () ->
        (* two .grid files that are row permutations of each other share a
           grid fingerprint, but a mapped bitstring is indexed by file
           row: the same bits over the permuted file denote different
           physical lines.  The verify key must (a) agree when the bits
           are permuted along with the rows — same poisoned topology —
           and (b) differ when the same bits are applied to the permuted
           rows — a different poisoned topology. *)
        let spec = case5 () in
        let g = spec.Grid.Spec.grid in
        let nl = N.n_lines g in
        let loads = Array.make g.N.n_buses (q 1 10) in
        (* swap line rows 0 and 1 together with their index-linked
           forward/backward flow-measurement rows *)
        let swap a i j =
          let x = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- x
        in
        let g' =
          let lines = Array.copy g.N.lines in
          swap lines 0 1;
          let meas = Array.copy g.N.meas in
          swap meas 0 1;
          swap meas nl (nl + 1);
          { g with N.lines; meas }
        in
        Alcotest.(check bool) "rows 0 and 1 differ" false
          (g.N.lines.(0) = g.N.lines.(1));
        let mapped = Array.init nl (fun i -> i <> 0) in
        let mapped' = Array.init nl (fun i -> i <> 1) in
        let k ~mapped g = C.verify_key ~mapped ~loads g in
        Alcotest.(check string) "same physical topology, same key"
          (k ~mapped g)
          (k ~mapped:mapped' g');
        Alcotest.(check bool)
          "same bits over permuted rows is a different topology" false
          (k ~mapped g = k ~mapped g'));
    Alcotest.test_case "ordering fingerprint pins the row order" `Quick
      (fun () ->
        let spec = ieee14 () in
        let g = spec.Grid.Spec.grid in
        Alcotest.(check string) "deterministic" (C.ordering g) (C.ordering g);
        for seed = 1 to 5 do
          let g' = (permute_spec seed spec).Grid.Spec.grid in
          (* skip a seed that happens to permute nothing *)
          if g.N.lines <> g'.N.lines || g.N.gens <> g'.N.gens
             || g.N.loads <> g'.N.loads
          then
            Alcotest.(check bool)
              (Printf.sprintf "permutation %d changes it" seed)
              false
              (C.ordering g = C.ordering g')
        done);
  ]

(* ---- single-field mutation sensitivity ---- *)

(* every mutation below changes exactly one field of the spec; each must
   change the store key *)
let mutations : (string * (Grid.Spec.t -> Grid.Spec.t)) list =
  let with_grid f (s : Grid.Spec.t) = { s with Grid.Spec.grid = f s.Grid.Spec.grid } in
  let with_line i f =
    with_grid (fun g ->
        let lines = Array.copy g.N.lines in
        lines.(i) <- f lines.(i);
        { g with N.lines })
  in
  let with_meas i f =
    with_grid (fun g ->
        let meas = Array.copy g.N.meas in
        meas.(i) <- f meas.(i);
        { g with N.meas })
  in
  [
    ("line admittance", with_line 0 (fun l -> { l with N.admittance = Q.add l.N.admittance (q 1 100) }));
    ("line capacity", with_line 1 (fun l -> { l with N.capacity = Q.add l.N.capacity (q 1 100) }));
    ("line known flag", with_line 2 (fun l -> { l with N.known = not l.N.known }));
    ("line in_true_topology", with_line 3 (fun l -> { l with N.in_true_topology = not l.N.in_true_topology }));
    ("line fixed flag", with_line 4 (fun l -> { l with N.fixed = not l.N.fixed }));
    ("line status_secured", with_line 5 (fun l -> { l with N.status_secured = not l.N.status_secured }));
    ("line status_alterable", with_line 6 (fun l -> { l with N.status_alterable = not l.N.status_alterable }));
    ("meas taken (fwd)", with_meas 0 (fun m -> { m with N.taken = not m.N.taken }));
    ("meas secured (bwd)", with_meas 8 (fun m -> { m with N.secured = not m.N.secured }));
    ("meas accessible (inj)", with_meas 15 (fun m -> { m with N.accessible = not m.N.accessible }));
    ( "gen pmax",
      with_grid (fun g ->
          let gens = Array.copy g.N.gens in
          gens.(0) <- { gens.(0) with N.pmax = Q.add gens.(0).N.pmax (q 1 10) };
          { g with N.gens }) );
    ( "gen beta",
      with_grid (fun g ->
          let gens = Array.copy g.N.gens in
          gens.(1) <- { gens.(1) with N.beta = Q.add gens.(1).N.beta Q.one };
          { g with N.gens }) );
    ( "load existing",
      with_grid (fun g ->
          let loads = Array.copy g.N.loads in
          loads.(0) <- { loads.(0) with N.existing = Q.add loads.(0).N.existing (q 1 100) };
          { g with N.loads }) );
    ( "load lmax",
      with_grid (fun g ->
          let loads = Array.copy g.N.loads in
          loads.(1) <- { loads.(1) with N.lmax = Q.add loads.(1).N.lmax (q 1 100) };
          { g with N.loads }) );
    ("max_meas budget", fun s -> { s with Grid.Spec.max_meas = s.Grid.Spec.max_meas + 1 });
    ("max_buses budget", fun s -> { s with Grid.Spec.max_buses = s.Grid.Spec.max_buses + 1 });
    ("cost_reference", fun s -> { s with Grid.Spec.cost_reference = Q.add s.Grid.Spec.cost_reference Q.one });
    ("min_increase_pct", fun s -> { s with Grid.Spec.min_increase_pct = Q.add s.Grid.Spec.min_increase_pct Q.one });
  ]

let mutation_tests =
  [
    Alcotest.test_case "every single-field mutation changes the key" `Quick
      (fun () ->
        let spec = case5 () in
        let k0 = C.key ~params spec in
        List.iter
          (fun (name, mutate) ->
            Alcotest.(check bool) name false (k0 = C.key ~params (mutate spec)))
          mutations);
    (let open QCheck2 in
     QCheck_alcotest.to_alcotest
       (Test.make ~count:60 ~name:"random line-field mutation changes the key"
          Gen.(pair (int_range 0 6) (int_range 0 6))
          (fun (line, field) ->
            let spec = case5 () in
            let k0 = C.key ~params spec in
            let mutate (l : N.line) =
              match field with
              | 0 -> { l with N.admittance = Q.add l.N.admittance (q 3 1000) }
              | 1 -> { l with N.capacity = Q.add l.N.capacity (q 3 1000) }
              | 2 -> { l with N.known = not l.N.known }
              | 3 -> { l with N.in_true_topology = not l.N.in_true_topology }
              | 4 -> { l with N.fixed = not l.N.fixed }
              | 5 -> { l with N.status_secured = not l.N.status_secured }
              | _ -> { l with N.status_alterable = not l.N.status_alterable }
            in
            let g = spec.Grid.Spec.grid in
            let lines = Array.copy g.N.lines in
            lines.(line) <- mutate lines.(line);
            let spec' = { spec with Grid.Spec.grid = { g with N.lines } } in
            k0 <> C.key ~params spec')));
    (let open QCheck2 in
     QCheck_alcotest.to_alcotest
       (Test.make ~count:60
          ~name:"random permutation preserves the key (14-bus)"
          Gen.(int_range 1 1_000_000)
          (fun seed ->
            let spec = ieee14 () in
            C.key ~params spec = C.key ~params (permute_spec seed spec))));
  ]

(* ---- LRU ---- *)

let lru_tests =
  [
    Alcotest.test_case "evicts least-recently-used first" `Quick (fun () ->
        (* each entry costs 1 + 1 + 64 = 66 bytes; budget fits two *)
        let l = Store.Lru.create ~max_bytes:140 in
        ignore (Store.Lru.add l ~key:"a" ~value:"1");
        ignore (Store.Lru.add l ~key:"b" ~value:"2");
        (* touch a so b is now the LRU entry *)
        Alcotest.(check (option string)) "find a" (Some "1") (Store.Lru.find l "a");
        let evicted = Store.Lru.add l ~key:"c" ~value:"3" in
        Alcotest.(check (list string)) "b evicted" [ "b" ] evicted;
        Alcotest.(check (option string)) "a kept" (Some "1") (Store.Lru.find l "a");
        Alcotest.(check (option string)) "c kept" (Some "3") (Store.Lru.find l "c");
        Alcotest.(check (option string)) "b gone" None (Store.Lru.find l "b"));
    Alcotest.test_case "replace does not report the old key as evicted"
      `Quick (fun () ->
        let l = Store.Lru.create ~max_bytes:1000 in
        ignore (Store.Lru.add l ~key:"k" ~value:"old");
        let evicted = Store.Lru.add l ~key:"k" ~value:"new" in
        Alcotest.(check (list string)) "no eviction" [] evicted;
        Alcotest.(check (option string)) "new value" (Some "new")
          (Store.Lru.find l "k");
        Alcotest.(check int) "one entry" 1 (Store.Lru.length l));
    Alcotest.test_case "entry larger than the whole budget is not stored"
      `Quick (fun () ->
        let l = Store.Lru.create ~max_bytes:80 in
        ignore (Store.Lru.add l ~key:"big" ~value:(String.make 100 'x'));
        Alcotest.(check int) "empty" 0 (Store.Lru.length l);
        Alcotest.(check (option string)) "absent" None (Store.Lru.find l "big"));
    Alcotest.test_case "bytes tracks the budget accounting" `Quick (fun () ->
        let l = Store.Lru.create ~max_bytes:10_000 in
        ignore (Store.Lru.add l ~key:"ab" ~value:"cde");
        Alcotest.(check int) "2 + 3 + 64" 69 (Store.Lru.bytes l);
        ignore (Store.Lru.add l ~key:"ab" ~value:"x");
        Alcotest.(check int) "replacement reaccounted" 67 (Store.Lru.bytes l));
  ]

(* ---- journal ---- *)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_journal name records k =
  let path = tmp name in
  if Sys.file_exists path then Sys.remove path;
  (match Store.Journal.open_append path with
  | Error e -> Alcotest.failf "open_append: %s" e
  | Ok (j, _) ->
    List.iter (fun (key, value) -> Store.Journal.append j ~key ~value) records;
    Store.Journal.close j);
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> k path)

let journal_tests =
  [
    Alcotest.test_case "roundtrip preserves records in order" `Quick (fun () ->
        let records = [ ("k1", "v1"); ("k2", "value two\nwith newline"); ("k3", "") ] in
        with_journal "tg-journal-rt.j" records (fun path ->
            match Store.Journal.scan path with
            | Error e -> Alcotest.failf "scan: %s" e
            | Ok r ->
              Alcotest.(check (list (pair string string)))
                "records" records r.Store.Journal.records;
              Alcotest.(check int) "no drops" 0 r.Store.Journal.dropped_bytes));
    Alcotest.test_case "missing file scans as empty" `Quick (fun () ->
        let path = tmp "tg-journal-none.j" in
        if Sys.file_exists path then Sys.remove path;
        match Store.Journal.scan path with
        | Error e -> Alcotest.failf "scan: %s" e
        | Ok r ->
          Alcotest.(check (list (pair string string))) "empty" []
            r.Store.Journal.records);
    Alcotest.test_case "non-journal file is rejected" `Quick (fun () ->
        let path = tmp "tg-journal-bad.j" in
        write_file path "this is not a journal\nr 1 1 00\nxy\n";
        Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
            (match Store.Journal.scan path with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "scan accepted a non-journal file");
            match Store.Journal.open_append path with
            | Error _ -> ()
            | Ok (j, _) ->
              Store.Journal.close j;
              Alcotest.fail "open_append accepted a non-journal file"));
    Alcotest.test_case "truncation at every byte offset of the last record"
      `Slow (fun () ->
        let records =
          [ ("alpha", "first value"); ("beta", "second\nvalue"); ("gamma", "third") ]
        in
        with_journal "tg-journal-trunc.j" records (fun path ->
            let full = read_file path in
            (* length of the journal holding only the first two records *)
            let prefix_len =
              with_journal "tg-journal-trunc2.j"
                [ List.nth records 0; List.nth records 1 ]
                (fun p2 -> String.length (read_file p2))
            in
            let cut_path = tmp "tg-journal-cut.j" in
            Fun.protect
              ~finally:(fun () ->
                if Sys.file_exists cut_path then Sys.remove cut_path)
              (fun () ->
                for cut = prefix_len to String.length full do
                  write_file cut_path (String.sub full 0 cut);
                  (* read-only recovery *)
                  (match Store.Journal.scan cut_path with
                  | Error e -> Alcotest.failf "scan at cut %d: %s" cut e
                  | Ok r ->
                    let expect =
                      if cut = String.length full then records
                      else [ List.nth records 0; List.nth records 1 ]
                    in
                    Alcotest.(check (list (pair string string)))
                      (Printf.sprintf "records at cut %d" cut)
                      expect r.Store.Journal.records;
                    Alcotest.(check int)
                      (Printf.sprintf "dropped at cut %d" cut)
                      (if cut = String.length full then 0 else cut - prefix_len)
                      r.Store.Journal.dropped_bytes);
                  (* append-mode recovery must truncate the tail and leave
                     a journal that accepts and returns a fresh record *)
                  match Store.Journal.open_append cut_path with
                  | Error e -> Alcotest.failf "open_append at cut %d: %s" cut e
                  | Ok (j, _) ->
                    Store.Journal.append j ~key:"delta" ~value:"appended";
                    Store.Journal.close j;
                    (match Store.Journal.scan cut_path with
                    | Error e -> Alcotest.failf "rescan at cut %d: %s" cut e
                    | Ok r2 ->
                      let expect =
                        (if cut = String.length full then records
                         else [ List.nth records 0; List.nth records 1 ])
                        @ [ ("delta", "appended") ]
                      in
                      Alcotest.(check (list (pair string string)))
                        (Printf.sprintf "append after cut %d" cut)
                        expect r2.Store.Journal.records)
                done)));
    Alcotest.test_case "truncation inside the magic line is recoverable"
      `Quick (fun () ->
        with_journal "tg-journal-magic.j" [ ("k", "v") ] (fun path ->
            let full = read_file path in
            let cut_path = tmp "tg-journal-magic-cut.j" in
            Fun.protect
              ~finally:(fun () ->
                if Sys.file_exists cut_path then Sys.remove cut_path)
              (fun () ->
                (* a crash can even land mid-magic on a fresh journal *)
                for cut = 0 to 5 do
                  write_file cut_path (String.sub full 0 cut);
                  match Store.Journal.open_append cut_path with
                  | Error e -> Alcotest.failf "open_append at cut %d: %s" cut e
                  | Ok (j, r) ->
                    Alcotest.(check (list (pair string string)))
                      (Printf.sprintf "no records at cut %d" cut)
                      [] r.Store.Journal.records;
                    Store.Journal.append j ~key:"x" ~value:"y";
                    Store.Journal.close j
                done)));
  ]

(* ---- cache facade ---- *)

let cache_tests =
  [
    Alcotest.test_case "find counts hits and misses" `Quick (fun () ->
        match Store.Cache.create ~max_bytes:10_000 () with
        | Error e -> Alcotest.failf "create: %s" e
        | Ok c ->
          Store.Cache.add c ~key:"k" ~value:"v";
          Alcotest.(check (option string)) "hit" (Some "v") (Store.Cache.find c "k");
          Alcotest.(check (option string)) "miss" None (Store.Cache.find c "nope");
          Store.Cache.close c);
    Alcotest.test_case "journal persists entries across reopen" `Quick
      (fun () ->
        let path = tmp "tg-cache-persist.j" in
        if Sys.file_exists path then Sys.remove path;
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () ->
            (match Store.Cache.create ~max_bytes:10_000 ~journal:path () with
            | Error e -> Alcotest.failf "create: %s" e
            | Ok c ->
              Store.Cache.add c ~key:"k1" ~value:"v1";
              Store.Cache.add c ~key:"k2" ~value:"v2";
              Store.Cache.add c ~key:"k1" ~value:"v1" (* idempotent: no re-journal *);
              Store.Cache.close c);
            match Store.Cache.create ~max_bytes:10_000 ~journal:path () with
            | Error e -> Alcotest.failf "reopen: %s" e
            | Ok c ->
              Alcotest.(check int) "recovered" 2 (Store.Cache.recovered c);
              Alcotest.(check (option string)) "k1" (Some "v1")
                (Store.Cache.find c "k1");
              Alcotest.(check (option string)) "k2" (Some "v2")
                (Store.Cache.find c "k2");
              Store.Cache.close c));
    Alcotest.test_case "reopen tolerates a truncated journal tail" `Quick
      (fun () ->
        let path = tmp "tg-cache-trunc.j" in
        if Sys.file_exists path then Sys.remove path;
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () ->
            (match Store.Cache.create ~max_bytes:10_000 ~journal:path () with
            | Error e -> Alcotest.failf "create: %s" e
            | Ok c ->
              Store.Cache.add c ~key:"keep" ~value:"ok";
              Store.Cache.add c ~key:"torn" ~value:"partial";
              Store.Cache.close c);
            (* chop 3 bytes off the tail record *)
            let s = read_file path in
            write_file path (String.sub s 0 (String.length s - 3));
            match Store.Cache.create ~max_bytes:10_000 ~journal:path () with
            | Error e -> Alcotest.failf "reopen: %s" e
            | Ok c ->
              Alcotest.(check (option string)) "keep survives" (Some "ok")
                (Store.Cache.find c "keep");
              Alcotest.(check (option string)) "torn dropped" None
                (Store.Cache.find c "torn");
              Store.Cache.close c));
    Alcotest.test_case "eviction respects the byte budget" `Quick (fun () ->
        (* entries cost 2 + 10 + 64 = 76 bytes; budget fits two *)
        match Store.Cache.create ~max_bytes:160 () with
        | Error e -> Alcotest.failf "create: %s" e
        | Ok c ->
          Store.Cache.add c ~key:"e1" ~value:(String.make 10 'a');
          Store.Cache.add c ~key:"e2" ~value:(String.make 10 'b');
          Store.Cache.add c ~key:"e3" ~value:(String.make 10 'c');
          Alcotest.(check int) "two resident" 2 (Store.Cache.length c);
          Alcotest.(check (option string)) "oldest evicted" None
            (Store.Cache.find c "e1");
          Store.Cache.close c);
  ]

let () =
  Alcotest.run "store"
    [
      ("canonical", canonical_tests);
      ("mutation", mutation_tests);
      ("lru", lru_tests);
      ("journal", journal_tests);
      ("cache", cache_tests);
    ]
