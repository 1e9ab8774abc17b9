(* Tests for the offline profiler and the CritIC database. *)

module Db = Profiler.Critic_db

let small_ctx () =
  let app =
    { (Option.get (Workload.Apps.find "Email")) with seed = 77 }
  in
  let program = Workload.Gen.program app in
  (program, 7, Prog.Walk.path_for_instrs program ~seed:7 ~instrs:20_000)

(* Profile a program's live stream over a block path. *)
let profile ?window ?threshold ?fraction ?metric (program, seed, path) =
  Profiler.Profile_run.profile_stream ?window ?threshold ?fraction ?metric
    ~total_events:(Prog.Trace.length_of_path program path)
    (Prog.Trace.Stream.of_program program ~seed path)

let test_profile_finds_chains () =
  let db = profile (small_ctx ()) in
  Alcotest.(check bool) "finds sites" true (List.length db.sites > 0);
  Alcotest.(check bool) "coverage positive" true (Db.coverage db > 0.0);
  Alcotest.(check bool) "coverage bounded" true (Db.coverage db <= 1.0)

let test_sites_well_formed () =
  let ((program, _, _) as ctx) = small_ctx () in
  let db = profile ctx in
  List.iter
    (fun (s : Db.site) ->
      Alcotest.(check bool) "length >= 2" true (Db.site_length s >= 2);
      Alcotest.(check bool) "criticality above threshold" true
        (s.criticality >= 4.0);
      Alcotest.(check bool) "occurrences positive" true (s.occurrences > 0);
      (* indices strictly increasing and uids match the program *)
      let block = Prog.Program.block program s.block_id in
      let rec check_incr prev = function
        | [] -> ()
        | i :: rest ->
          Alcotest.(check bool) "strictly increasing" true (i > prev);
          check_incr i rest
      in
      check_incr (-1) s.member_indices;
      List.iter2
        (fun idx uid ->
          Alcotest.(check int) "uid matches program"
            block.Prog.Block.body.(idx).Isa.Instr.uid uid)
        s.member_indices s.uids)
    db.sites

let test_sites_nonoverlapping_ranges () =
  let db = profile (small_ctx ()) in
  let by_block = Hashtbl.create 32 in
  List.iter
    (fun (s : Db.site) ->
      let lo = List.hd s.member_indices in
      let hi = List.fold_left max lo s.member_indices in
      let existing =
        Option.value ~default:[] (Hashtbl.find_opt by_block s.block_id)
      in
      List.iter
        (fun (l, h) ->
          Alcotest.(check bool) "ranges disjoint" true (hi < l || h < lo))
        existing;
      Hashtbl.replace by_block s.block_id ((lo, hi) :: existing))
    db.sites

let test_restrict_length () =
  let db = profile (small_ctx ()) in
  let db5 = Db.restrict_length 3 db in
  List.iter
    (fun s ->
      Alcotest.(check bool) "capped at 3" true (Db.site_length s <= 3))
    db5.sites;
  Alcotest.(check int) "site count preserved" (List.length db.sites)
    (List.length db5.sites)

let test_exact_length () =
  let db = profile (small_ctx ()) in
  let db4 = Db.exact_length 4 db in
  List.iter
    (fun s ->
      Alcotest.(check int) "exactly 4" 4 (Db.site_length s))
    db4.sites

let test_coverage_cdf_monotone () =
  let db = profile (small_ctx ()) in
  let pts = Db.coverage_cdf db in
  let rec check_monotone = function
    | (r1, c1) :: ((r2, c2) :: _ as rest) ->
      Alcotest.(check bool) "ranks increase" true (r2 >= r1);
      Alcotest.(check bool) "coverage increases" true (c2 >= c1);
      check_monotone rest
    | _ -> ()
  in
  check_monotone pts;
  List.iter
    (fun (_, c) ->
      Alcotest.(check bool) "coverage within [0,1]" true (c >= 0.0 && c <= 1.0))
    pts

let test_convertible_coverage_bounded () =
  let db = profile (small_ctx ()) in
  Alcotest.(check bool) "convertible <= total" true
    (Db.convertible_coverage db <= Db.coverage db)

let test_fraction_profiles_less () =
  let ctx = small_ctx () in
  let full = profile ctx in
  let half = profile ~fraction:0.3 ctx in
  Alcotest.(check bool) "partial profile sees fewer or equal sites" true
    (List.length half.sites <= List.length full.sites)

let test_threshold_monotone () =
  let ctx = small_ctx () in
  let lo = profile ~threshold:2.0 ctx in
  let hi = profile ~threshold:8.0 ctx in
  Alcotest.(check bool) "higher threshold selects fewer chains" true
    (List.length hi.sites <= List.length lo.sites)

let test_histograms_populated () =
  let db = profile (small_ctx ()) in
  Alcotest.(check bool) "lengths recorded" true
    (Util.Dist.Histogram.count db.ic_lengths > 0);
  Alcotest.(check bool) "spreads recorded" true
    (Util.Dist.Histogram.count db.ic_spreads > 0);
  Alcotest.(check bool) "gaps recorded" true
    (Util.Dist.Histogram.count db.chain_gaps > 0)

let test_mobile_chains_short () =
  let db = profile ~window:2048 (small_ctx ()) in
  (* the paper's mobile bound: chains of tens, spreads of hundreds *)
  Alcotest.(check bool) "mobile IC lengths bounded" true
    (Util.Dist.Histogram.max_value db.ic_lengths < 100)

(* ------------------------------ Db_io ------------------------------ *)

let test_db_roundtrip () =
  let db = profile (small_ctx ()) in
  let db' = Profiler.Db_io.of_string (Profiler.Db_io.to_string db) in
  Alcotest.(check int) "site count" (List.length db.sites)
    (List.length db'.sites);
  Alcotest.(check int) "total work" db.total_work db'.total_work;
  Alcotest.(check (float 1e-6)) "coverage preserved" (Db.coverage db)
    (Db.coverage db');
  List.iter2
    (fun (a : Db.site) (b : Db.site) ->
      Alcotest.(check int) "block" a.block_id b.block_id;
      Alcotest.(check (list int)) "indices" a.member_indices b.member_indices;
      Alcotest.(check (list int)) "uids" a.uids b.uids;
      Alcotest.(check string) "key" a.key b.key;
      Alcotest.(check bool) "convertible" a.convertible b.convertible;
      Alcotest.(check int) "occurrences" a.occurrences b.occurrences)
    db.sites db'.sites;
  Alcotest.(check (list (pair int int)))
    "length histogram"
    (Util.Dist.Histogram.bins db.ic_lengths)
    (Util.Dist.Histogram.bins db'.ic_lengths)

let test_db_file_roundtrip () =
  let db = profile (small_ctx ()) in
  let path = Filename.temp_file "critics" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profiler.Db_io.save db path;
      let db' = Profiler.Db_io.load path in
      Alcotest.(check int) "sites survive the file" (List.length db.sites)
        (List.length db'.sites))

let corrupt_err f =
  try
    ignore (f ());
    None
  with Util.Err.Error e -> Some e

let test_db_rejects_garbage () =
  (match corrupt_err (fun () -> Profiler.Db_io.of_string "not-a-db\n") with
  | Some e ->
    Alcotest.(check bool) "bad version is Corrupt_input" true
      (e.Util.Err.kind = Util.Err.Corrupt_input)
  | None -> Alcotest.fail "bad version accepted");
  Alcotest.(check bool) "empty rejected" true
    (corrupt_err (fun () -> Profiler.Db_io.of_string "") <> None)

let test_db_corrupt_file_names_path () =
  let db = profile (small_ctx ()) in
  let path = Filename.temp_file "critics" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profiler.Db_io.save db path;
      (* Truncate the file as a crashed non-atomic writer would. *)
      let text = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub text 0 (String.length text / 2)));
      match corrupt_err (fun () -> Profiler.Db_io.load path) with
      | None -> Alcotest.fail "truncated database accepted"
      | Some e ->
        Alcotest.(check bool) "kind is Corrupt_input" true
          (e.Util.Err.kind = Util.Err.Corrupt_input);
        Alcotest.(check bool) "message names the file path" true
          (let msg = e.Util.Err.msg in
           let plen = String.length path in
           let rec contains i =
             if i + plen > String.length msg then false
             else String.sub msg i plen = path || contains (i + 1)
           in
           contains 0))

let test_db_save_atomic () =
  let db = profile (small_ctx ()) in
  let path = Filename.temp_file "critics" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* Overwriting an existing database must go through the rename
         path and leave no temporary behind. *)
      Profiler.Db_io.save db path;
      Profiler.Db_io.save db path;
      Alcotest.(check bool) "no stray .tmp" false
        (Sys.file_exists (path ^ ".tmp"));
      Alcotest.(check int) "content intact" (List.length db.sites)
        (List.length (Profiler.Db_io.load path).sites))

(* Fields a mutation rarely produces, each rejected on its own line: a
   negative site count, a negative histogram count, and a
   convertibility flag that is not a boolean. *)
let test_db_rejects_bad_fields () =
  let db =
    {
      Db.sites = [];
      total_work = 0;
      ic_lengths = Util.Dist.Histogram.create ();
      ic_spreads = Util.Dist.Histogram.create ();
      chain_gaps = Util.Dist.Histogram.create ();
    }
  in
  let lines = String.split_on_char '\n' (Profiler.Db_io.to_string db) in
  let edit n line =
    String.concat "\n"
      (List.mapi (fun i l -> if i = n - 1 then line else l) lines)
  in
  List.iter
    (fun (what, text, line) ->
      match Profiler.Db_io.of_string ~path:"bad.db" text with
      | _ -> Alcotest.failf "%s accepted" what
      | exception Util.Err.Error e ->
        Alcotest.(check bool) (what ^ ": Corrupt_input") true
          (e.kind = Util.Err.Corrupt_input);
        let at = Printf.sprintf "Db_io bad.db:%d:" line in
        Alcotest.(check string) (what ^ ": file and line") at
          (String.sub e.msg 0 (min (String.length e.msg) (String.length at))))
    [
      ("sites -1", edit 3 "sites -1", 3);
      ("histogram 3 -5", edit 4 "hist ic_lengths\n3 -5", 5);
      ("convertible yes", edit 3 "sites 1\n1 0 3 4.5 yes 0,1 10,11 alu", 4);
    ]

(* [Db_io.of_string] is total: any damage to a database's text decodes
   to a database or raises a [Corrupt_input] error that names the file
   and line, never another exception. *)
let prop_db_io_total =
  QCheck.Test.make ~name:"db_io is total over damaged text" ~count:60
    (QCheck.make ~print:(Printf.sprintf "seed %d") QCheck.Gen.(int_bound 1000))
    (fun seed ->
      let program = Workload.Fuzz.program_of_seed seed in
      let path = Prog.Walk.path_for_instrs program ~seed ~instrs:1_000 in
      let db = profile (program, seed, path) in
      List.for_all
        (fun text ->
          match Profiler.Db_io.of_string ~path:"damaged.db" text with
          | _ -> true
          | exception Util.Err.Error { kind = Util.Err.Corrupt_input; msg; _ }
            when String.starts_with ~prefix:"Db_io damaged.db:" msg ->
            true
          | exception e ->
            QCheck.Test.fail_reportf "input %S raised %s" text
              (Printexc.to_string e))
        (Damage.variants ~count:64 ~seed (Profiler.Db_io.to_string db)))

(* ------------------------------ Metric ----------------------------- *)

let test_metric_uniform_chain () =
  (* all metrics agree on a uniform chain *)
  List.iter
    (fun m ->
      Alcotest.(check (float 1e-6))
        (Profiler.Metric.name m ^ " on uniform")
        4.0
        (Profiler.Metric.score m [ 4; 4; 4 ]))
    Profiler.Metric.all

let test_metric_orderings () =
  let front = [ 9; 1; 1 ] and back = [ 1; 1; 9 ] in
  let score m l = Profiler.Metric.score m l in
  Alcotest.(check (float 1e-6)) "average is order-blind"
    (score Profiler.Metric.Average_fanout front)
    (score Profiler.Metric.Average_fanout back);
  Alcotest.(check bool) "tail-weighted prefers critical tails" true
    (score Profiler.Metric.Tail_weighted back
    > score Profiler.Metric.Tail_weighted front);
  Alcotest.(check (float 1e-6)) "minimum scores the weakest member" 1.0
    (score Profiler.Metric.Minimum_fanout front);
  Alcotest.(check bool) "geomean penalizes variance" true
    (score Profiler.Metric.Geometric_mean front
    < score Profiler.Metric.Average_fanout front)

let test_metric_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "of_string roundtrips" true
        (Profiler.Metric.of_string (Profiler.Metric.name m) = Some m))
    Profiler.Metric.all;
  Alcotest.(check (float 1e-9)) "empty chain scores 0" 0.0
    (Profiler.Metric.score Profiler.Metric.Average_fanout [])

let test_profile_with_metric () =
  let ctx = small_ctx () in
  List.iter
    (fun m ->
      let db = profile ~metric:m ctx in
      Alcotest.(check bool)
        (Profiler.Metric.name m ^ " produces a valid db")
        true
        (Db.coverage db >= 0.0 && Db.coverage db <= 1.0))
    Profiler.Metric.all

(* Db_io must round-trip databases profiled from arbitrary programs,
   not just the seed apps: every site field, the totals and the
   interconvertible-length histogram survive [of_string ∘ to_string]. *)
let prop_db_io_roundtrip =
  QCheck.Test.make ~name:"db_io round-trips fuzzed profiles" ~count:40
    QCheck.small_nat
    (fun seed ->
      let program = Workload.Fuzz.program_of_seed seed in
      let path = Prog.Walk.path_for_instrs program ~seed ~instrs:1_000 in
      let db = profile (program, seed, path) in
      let db' = Profiler.Db_io.of_string (Profiler.Db_io.to_string db) in
      db.total_work = db'.total_work
      && List.length db.sites = List.length db'.sites
      && List.for_all2
           (fun (a : Db.site) (b : Db.site) ->
             a.block_id = b.block_id
             && a.member_indices = b.member_indices
             && a.uids = b.uids
             && a.key = b.key
             && a.convertible = b.convertible
             && a.occurrences = b.occurrences)
           db.sites db'.sites
      && Util.Dist.Histogram.bins db.ic_lengths
         = Util.Dist.Histogram.bins db'.ic_lengths)

(* ------------------------------ golden ----------------------------- *)

(* MD5 of [Marshal.to_string db []] for every app prepared at 20 000
   instrs, and for six parameter variants on two apps.  Equal bytes
   cover every site field, the site order, the float bits and each
   histogram's Hashtbl layout, which depends on the order its values
   were first seen.  The table was recorded before the profiling kernel
   moved to flat arrays.  Never re-record it to make a profiler change
   pass: a mismatch means the databases changed. *)
let golden_instrs = 20_000

let golden_defaults =
  [
    ("Acrobat", "e2419952a77f30479630c2983b74448b");
    ("Angrybirds", "ddf415a79119236c4d379f841fedc867");
    ("Browser", "31452058b7f6cc2b5d0d33e1c46f19d6");
    ("Facebook", "cfb514a097003cc31ddcc77228891527");
    ("Email", "a569b4f97e11ca5f28ee66e6c3c8a9cb");
    ("Maps", "223c2180ba2a951ec403e3b6dc8ea457");
    ("Music", "ca08af8c52283e3ae53b3d02017877a8");
    ("Office", "296888b796c5b8f4f6895fe0b8df421b");
    ("PhotoGallery", "5c7638d36af1b1e710feccebc7cf1b92");
    ("Youtube", "8dda97794c5177a0472a774e87c7cf75");
    ("bzip2", "93aac1f2a94c04b587b352f9cf8f8f46");
    ("hmmer", "c0bb9f2b8fb5697f3738a5f2292e0dfa");
    ("libquantum", "ae12198890ad1f62f1fb93225869e643");
    ("mcf", "fd2ba8c218d4f93f8dd37d1870be0d62");
    ("gcc", "0f52145c5b52a197503e949c7447f371");
    ("gobmk", "0fa1b54b970776377df073837ee7690d");
    ("sjeng", "259ad4150ae1311f5560e8cc327780f2");
    ("h264ref", "3614d98e2f75d869010cacd5e8ac4846");
    ("sperand", "c914014b917cea0e93abe8a14d6454d1");
    ("namd", "3e80d5d45b6c47b0781835e335bf7aa8");
    ("gromacs", "fc8435ff7c3a647ba576a83e47db23cf");
    ("calculix", "af74455ddbade80881950efafaeda4f8");
    ("lbm", "9a400bfcaca809a157cb541711594aca");
    ("milc", "da96105a76796c5950ebbdf35a93e425");
    ("dealII", "766f3433ec2c9f4ea714af6316a73a86");
    ("leslie3d", "59308cf382dbf710641167c8857f6614");
  ]

let golden_variant_apps = [ "Acrobat"; "mcf" ]

let golden_variants =
  [
    ("Acrobat window 256",
     "738fcea37e02426dc568c96a50fd7706");
    ("Acrobat window 2048",
     "85946c2c63d4f82e44629d9ac8d3817d");
    ("Acrobat threshold 2.0 fraction 0.3",
     "56019fa41e2af0e823b2c3659bd5a5d9");
    ("Acrobat geomean max_paths 64",
     "d53b08f940ac46d6658c07bd33c3c311");
    ("Acrobat tail-weighted",
     "ec5f03ab5dbf922f527f24d75b0daafc");
    ("Acrobat minimum",
     "180d06ff8e2be69f525edd311bd587d1");
    ("mcf window 256",
     "0e2bb4167c3b9f66f15e76fde84a01a0");
    ("mcf window 2048",
     "f4ecfc563e56da0641e8b4208d62c0b6");
    ("mcf threshold 2.0 fraction 0.3",
     "05f09f9f4e46255458dc4ada77b9586d");
    ("mcf geomean max_paths 64",
     "7448c910a233ebf5046e60292580333a");
    ("mcf tail-weighted",
     "45a3e8ec49c96ed56387b30e12aed1ed");
    ("mcf minimum",
     "19e2b1fd29aca74e0fc75a031b33bbab");
  ]

let db_digest (db : Db.t) =
  Digest.to_hex (Digest.string (Marshal.to_string db []))

(* Profile a prepared context's own stream with non-default
   parameters. *)
let reprofile ?window ?threshold ?fraction ?max_paths_per_window ?metric
    (ctx : Critics.Run.app_context) =
  Profiler.Profile_run.profile_stream ?window ?threshold ?fraction
    ?max_paths_per_window ?metric ~total_events:ctx.event_count
    (Prog.Trace.Stream.of_program ctx.program ~seed:ctx.seed ctx.path)

let test_db_golden () =
  let ctxs =
    List.map
      (fun (app : Workload.Profile.t) ->
        (app.name, Critics.Run.prepare ~instrs:golden_instrs app))
      Workload.Apps.all
  in
  let defaults =
    List.map
      (fun (name, (ctx : Critics.Run.app_context)) -> (name, db_digest ctx.db))
      ctxs
  in
  let variants =
    [
      ("window 256", fun ctx -> reprofile ~window:256 ctx);
      ("window 2048", fun ctx -> reprofile ~window:2048 ctx);
      ( "threshold 2.0 fraction 0.3",
        fun ctx -> reprofile ~threshold:2.0 ~fraction:0.3 ctx );
      ( "geomean max_paths 64",
        fun ctx ->
          reprofile ~metric:Profiler.Metric.Geometric_mean
            ~max_paths_per_window:64 ctx );
      ( "tail-weighted",
        fun ctx -> reprofile ~metric:Profiler.Metric.Tail_weighted ctx );
      ("minimum", fun ctx -> reprofile ~metric:Profiler.Metric.Minimum_fanout ctx);
    ]
  in
  let variant_digests =
    List.concat_map
      (fun name ->
        let ctx = List.assoc name ctxs in
        List.map
          (fun (what, profile) -> (name ^ " " ^ what, db_digest (profile ctx)))
          variants)
      golden_variant_apps
  in
  Alcotest.(check (list (pair string string)))
    "default databases" golden_defaults defaults;
  Alcotest.(check (list (pair string string)))
    "parameter variants" golden_variants variant_digests;
  (* The same databases derived as a context's variants. *)
  let run_variants =
    Critics.Run.
      [
        ("window 256", { prepared with window = 256 });
        ("window 2048", { prepared with window = 2048 });
        ( "threshold 2.0 fraction 0.3",
          { prepared with threshold = 2.0; fraction = 0.3 } );
        ( "tail-weighted",
          { prepared with metric = Profiler.Metric.Tail_weighted } );
        ("minimum", { prepared with metric = Profiler.Metric.Minimum_fanout });
      ]
  in
  List.iter
    (fun name ->
      let ctx = List.assoc name ctxs in
      List.iter
        (fun (what, variant) ->
          let id = name ^ " " ^ what in
          Alcotest.(check string)
            (id ^ " through Run.database")
            (List.assoc id golden_variants)
            (db_digest (Critics.Run.database ctx variant)))
        run_variants)
    golden_variant_apps

let () =
  Alcotest.run "profiler"
    [
      ( "profile",
        [
          Alcotest.test_case "finds chains" `Quick test_profile_finds_chains;
          Alcotest.test_case "sites well formed" `Quick test_sites_well_formed;
          Alcotest.test_case "ranges disjoint" `Quick
            test_sites_nonoverlapping_ranges;
          Alcotest.test_case "histograms" `Quick test_histograms_populated;
          Alcotest.test_case "mobile chains short" `Quick test_mobile_chains_short;
          Alcotest.test_case "partial profiling" `Quick test_fraction_profiles_less;
          Alcotest.test_case "threshold monotone" `Quick test_threshold_monotone;
        ] );
      ( "db",
        [
          Alcotest.test_case "restrict length" `Quick test_restrict_length;
          Alcotest.test_case "exact length" `Quick test_exact_length;
          Alcotest.test_case "cdf monotone" `Quick test_coverage_cdf_monotone;
          Alcotest.test_case "convertible bounded" `Quick
            test_convertible_coverage_bounded;
          Alcotest.test_case "db golden digests" `Quick test_db_golden;
        ] );
      ( "db_io",
        [
          Alcotest.test_case "string roundtrip" `Quick test_db_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_db_file_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_db_rejects_garbage;
          Alcotest.test_case "corrupt file names path" `Quick
            test_db_corrupt_file_names_path;
          Alcotest.test_case "save is atomic" `Quick test_db_save_atomic;
          Alcotest.test_case "rejects bad fields" `Quick
            test_db_rejects_bad_fields;
          QCheck_alcotest.to_alcotest prop_db_io_roundtrip;
          QCheck_alcotest.to_alcotest prop_db_io_total;
        ] );
      ( "metric",
        [
          Alcotest.test_case "uniform chain" `Quick test_metric_uniform_chain;
          Alcotest.test_case "orderings" `Quick test_metric_orderings;
          Alcotest.test_case "roundtrip" `Quick test_metric_roundtrip;
          Alcotest.test_case "profile with metric" `Quick test_profile_with_metric;
        ] );
    ]
