(* Command-line interface to the CritICs reproduction. *)

open Cmdliner

let app_arg =
  let doc = "Application name (see `critics apps' for the list)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

let instrs_arg =
  let doc = "Dynamic work instructions to simulate per run." in
  Arg.(value & opt int Critics.Run.default_instrs & info [ "instrs" ] ~doc)

let lookup_app name =
  match Workload.Apps.find name with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown app %S; try `critics apps'" name)

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline msg;
    exit 1

(* ------------------------------- apps ---------------------------- *)

let apps_cmd =
  let run () = print_endline (Workload.Apps.table_ii ()) in
  Cmd.v (Cmd.info "apps" ~doc:"List the evaluated applications (Table II)")
    Term.(const run $ const ())

(* ------------------------------ config --------------------------- *)

let config_cmd =
  let run () =
    print_endline
      (Util.Text_table.render_kv
         (Pipeline.Config.describe Pipeline.Config.table_i))
  in
  Cmd.v
    (Cmd.info "config" ~doc:"Print the baseline machine (Table I)")
    Term.(const run $ const ())

(* ------------------------------- run ----------------------------- *)

let parse_scheme name =
  match Critics.Scheme.of_string name with
  | Some s -> s
  | None ->
    prerr_endline ("unknown scheme " ^ name);
    exit 1

let scheme_arg =
  let doc =
    "Scheme: " ^ String.concat ", " (List.map Critics.Scheme.name Critics.Scheme.all)
  in
  Arg.(value & opt string "critic" & info [ "scheme" ] ~doc)

let run_cmd =
  let run app scheme instrs =
    let profile = or_die (lookup_app app) in
    let scheme = parse_scheme scheme in
    let ctx = Critics.Run.prepare ~instrs profile in
    let base = Critics.Run.stats ctx Critics.Scheme.Baseline in
    let st = Critics.Run.stats ctx scheme in
    Printf.printf "%s / %s (%d work instructions)\n\n" profile.name
      (Critics.Scheme.name scheme) instrs;
    print_endline (Pipeline.Stats.render st);
    if scheme <> Critics.Scheme.Baseline then begin
      Printf.printf "\nspeedup over baseline: %s\n"
        (Util.Stats.pct (Critics.Run.speedup ~base st));
      let e = Critics.Run.energy ~base st in
      Printf.printf "system energy saving:  %s (CPU-only %s)\n"
        (Util.Stats.pct e.system) (Util.Stats.pct e.cpu_only)
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate one application under one scheme")
    Term.(const run $ app_arg $ scheme_arg $ instrs_arg)

(* ----------------------------- compare --------------------------- *)

let compare_cmd =
  let run app instrs =
    let profile = or_die (lookup_app app) in
    let ctx = Critics.Run.prepare ~instrs profile in
    let base = Critics.Run.stats ctx Critics.Scheme.Baseline in
    Printf.printf "%s: baseline %d cycles, IPC %.2f\n\n" profile.name
      base.cycles (Pipeline.Stats.ipc base);
    let rows =
      List.map
        (fun scheme ->
          let st = Critics.Run.stats ctx scheme in
          [
            Critics.Scheme.name scheme;
            string_of_int st.Pipeline.Stats.cycles;
            Util.Stats.pct (Critics.Run.speedup ~base st);
            Util.Stats.pct
              (float_of_int st.thumb_committed
              /. float_of_int (max 1 st.committed_total));
          ])
        Critics.Scheme.all
    in
    print_endline
      (Util.Text_table.render
         ~header:[ "scheme"; "cycles"; "speedup"; "16-bit instrs" ]
         rows)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run every scheme on one application")
    Term.(const run $ app_arg $ instrs_arg)

(* ----------------------------- profile --------------------------- *)

let profile_cmd =
  let save_arg =
    let doc = "Write the CritIC database to $(docv) (text format)." in
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)
  in
  let run app instrs save =
    let profile = or_die (lookup_app app) in
    let ctx = Critics.Run.prepare ~instrs profile in
    let db = ctx.db in
    (match save with
    | Some path ->
      Profiler.Db_io.save db path;
      Printf.printf "database written to %s\n" path
    | None -> ());
    Printf.printf "%s: %d CritIC sites, coverage %s (convertible %s)\n\n"
      profile.name
      (List.length db.sites)
      (Util.Stats.pct (Profiler.Critic_db.coverage db))
      (Util.Stats.pct (Profiler.Critic_db.convertible_coverage db));
    let top = List.filteri (fun i _ -> i < 15) db.sites in
    print_endline
      (Util.Text_table.render
         ~header:
           [ "block"; "len"; "occurrences"; "criticality"; "convertible";
             "chain" ]
         (List.map
            (fun (s : Profiler.Critic_db.site) ->
              [
                string_of_int s.block_id;
                string_of_int (Profiler.Critic_db.site_length s);
                string_of_int s.occurrences;
                Printf.sprintf "%.1f" s.criticality;
                (if s.convertible then "yes" else "no");
                s.key;
              ])
            top))
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Show the CritIC database of an application")
    Term.(const run $ app_arg $ instrs_arg $ save_arg)

(* --------------------------- characterize ------------------------- *)

let characterize_cmd =
  let run app instrs =
    let profile = or_die (lookup_app app) in
    let _, trace = Workload.Gen.trace ~instrs profile in
    Printf.printf "%s — %s\n\n%s\n" profile.name profile.activity
      (Workload.Characterize.render (Workload.Characterize.of_trace trace))
  in
  Cmd.v
    (Cmd.info "characterize"
       ~doc:"Summarize an application's dynamic instruction stream")
    Term.(const run $ app_arg $ instrs_arg)

(* ------------------------------ schemes --------------------------- *)

(* Each scheme with its pass list from the scheme table, so a paper
   scheme maps to the stages that compile it. *)
let schemes_cmd =
  let run () =
    List.iter
      (fun s ->
        let passes =
          match
            Critics.Transform.Pipeline.names (snd (Critics.Scheme.pipeline s))
          with
          | [] -> "none"
          | names -> String.concat " -> " names
        in
        Printf.printf "%-16s %s\n%-16s passes: %s\n" (Critics.Scheme.name s)
          (Critics.Scheme.describe s) "" passes)
      Critics.Scheme.all
  in
  Cmd.v
    (Cmd.info "schemes"
       ~doc:"List the code-generation schemes and the passes of each")
    Term.(const run $ const ())

(* ---------------------------- experiment -------------------------- *)

let experiment_cmd =
  let id_arg =
    let doc =
      "Experiment id (tab1, tab2, fig1, ..., ablations, nanopass, \
       policy-lab) or `all'."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let jobs_arg =
    let doc =
      "Domains to evaluate simulations on (default: the machine's \
       recommended domain count).  Results are bit-identical for every \
       value."
    in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let run id instrs jobs =
    let h = Experiments.Harness.create ~instrs ?jobs () in
    if id = "all" then Experiments.run_all h
    else
      match Experiments.find id with
      | Some e ->
        Experiments.prewarm ~only:e h;
        print_endline (e.render h)
      | None ->
        prerr_endline
          ("unknown experiment; available: all "
          ^ String.concat " "
              (List.map
                 (fun (e : Experiments.entry) -> e.id)
                 (Experiments.all @ Experiments.extra)));
        exit 1
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate a table/figure of the paper (or `all')")
    Term.(const run $ id_arg $ instrs_arg $ jobs_arg)

(* ------------------------------- trace ---------------------------- *)

let window_arg =
  let doc = "Telemetry attribution window in cycles." in
  Arg.(value & opt int 1024 & info [ "window" ] ~docv:"CYCLES" ~doc)

let app_opt_arg =
  let doc = "Application name (see `critics apps' for the list)." in
  Arg.(required & opt (some string) None & info [ "app" ] ~docv:"APP" ~doc)

let trace_cmd =
  let scheme_arg =
    let doc =
      "Scheme: "
      ^ String.concat ", " (List.map Critics.Scheme.name Critics.Scheme.all)
    in
    Arg.(value & opt string "critic" & info [ "scheme" ] ~doc)
  in
  let out_arg =
    let doc = "Write the Chrome/Perfetto trace-event JSON to $(docv)." in
    Arg.(value & opt string "trace.json" & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let events_arg =
    let doc =
      "Trace ring capacity in events; the oldest events are dropped once \
       it fills, keeping memory bounded."
    in
    Arg.(value & opt int 65536 & info [ "events" ] ~docv:"N" ~doc)
  in
  let export app scheme instrs window out events =
    let profile = or_die (lookup_app app) in
    let scheme = parse_scheme scheme in
    let ctx = Critics.Run.prepare ~instrs profile in
    let trace = Telemetry.Chrome_trace.create ~capacity:events () in
    let probe = Telemetry.Probe.create ~window ~trace () in
    let st = Critics.Run.stats ~probe ctx scheme in
    Telemetry.Chrome_trace.write_file trace out;
    Printf.printf
      "%s / %s: %d cycles, %d committed; %d trace events (%d dropped) -> %s\n"
      profile.name
      (Critics.Scheme.name scheme)
      st.Pipeline.Stats.cycles st.committed_total
      (Telemetry.Chrome_trace.length trace)
      (Telemetry.Chrome_trace.dropped trace)
      out;
    Printf.printf "open in https://ui.perfetto.dev or chrome://tracing\n"
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Export a Chrome/Perfetto trace of one run")
    Term.(
      const export $ app_opt_arg $ scheme_arg $ instrs_arg $ window_arg
      $ out_arg $ events_arg)

(* ------------------------------- report --------------------------- *)

let report_cmd =
  let schemes_arg =
    let doc =
      "Comma-separated schemes to report (default: \
       baseline,critic,opp16+critic)."
    in
    Arg.(
      value
      & opt string "baseline,critic,opp16+critic"
      & info [ "schemes" ] ~doc)
  in
  let run app instrs window schemes =
    let profile = or_die (lookup_app app) in
    let schemes =
      List.map parse_scheme (String.split_on_char ',' schemes)
    in
    let ctx = Critics.Run.prepare ~instrs profile in
    let runs =
      List.map
        (fun scheme ->
          let probe = Telemetry.Probe.create ~window () in
          let st = Critics.Run.stats ~probe ctx scheme in
          (scheme, st, probe))
        schemes
    in
    Printf.printf "%s (%d work instructions, window %d cycles)\n\n"
      profile.name instrs window;
    (* CPI stacks: per-stage cycles per committed instruction, the
       paper's Fig. 3 decomposition, one row per scheme. *)
    let stack_table pop_name pop =
      let rows =
        List.map
          (fun (scheme, (st : Pipeline.Stats.t), probe) ->
            let t : Telemetry.Probe.stage_totals =
              Telemetry.Probe.totals probe pop
            in
            let per x =
              if t.count = 0 then "-"
              else Printf.sprintf "%.3f" (float_of_int x /. float_of_int t.count)
            in
            [
              Critics.Scheme.name scheme;
              string_of_int st.cycles;
              string_of_int t.count;
              per t.fetch_i;
              per t.fetch_rd;
              per t.decode;
              per t.rename;
              per t.issue_wait;
              per t.execute;
              per t.commit_wait;
            ])
          runs
      in
      Printf.printf "CPI stack — %s population (cycles/instr)\n%s\n" pop_name
        (Util.Text_table.render
           ~header:
             [ "scheme"; "cycles"; "count"; "f.stall_i"; "f.stall_r+d";
               "decode"; "rename"; "issue"; "execute"; "commit" ]
           rows)
    in
    stack_table "all" Telemetry.Probe.All;
    stack_table "critical" Telemetry.Probe.Critical;
    stack_table "chain" Telemetry.Probe.Chain;
    let chain_rows =
      List.filter_map
        (fun (scheme, _, probe) ->
          let reg = Telemetry.Probe.registry probe in
          let h = Telemetry.Registry.histogram reg "chain/latency" in
          if Telemetry.Registry.hist_count h = 0 then None
          else
            Some
              [
                Critics.Scheme.name scheme;
                string_of_int (Telemetry.Registry.hist_count h);
                string_of_int (Telemetry.Registry.quantile h 0.50);
                string_of_int (Telemetry.Registry.quantile h 0.90);
                string_of_int (Telemetry.Registry.quantile h 0.99);
                string_of_int (Telemetry.Registry.hist_max h);
              ])
        runs
    in
    if chain_rows <> [] then
      Printf.printf
        "chain latency — dispatch of first member to commit of last \
         (cycles)\n%s\n"
        (Util.Text_table.render
           ~header:[ "scheme"; "chains"; "p50"; "p90"; "p99"; "max" ]
           chain_rows)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Print per-population CPI stacks and CritIC chain-latency \
          quantiles from the cycle-attribution telemetry")
    Term.(const run $ app_opt_arg $ instrs_arg $ window_arg $ schemes_arg)

(* ------------------------------- check ---------------------------- *)

let check_cmd =
  let cases_arg =
    let doc =
      "Fuzzed programs to run through the differential harness (in \
       addition to the seed applications)."
    in
    Arg.(value & opt int 200 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Base fuzz seed; case $(i) uses seed SEED+$(i)." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let run cases seed =
    let module D = Oracle.Differential in
    let failures = ref 0 in
    let events = ref 0 in
    let simulated = ref 0 in
    let pipelines = ref 0 in
    let applications = ref 0 in
    let count (t : D.tally) =
      events := !events + t.compared;
      simulated := !simulated + t.simulated;
      pipelines := !pipelines + t.pipelines;
      applications := !applications + t.applications
    in
    let report label = function
      | Ok t -> count t
      | Error msg ->
        incr failures;
        Printf.eprintf "FAIL %-24s %s\n%!" label msg
    in
    Printf.printf
      "differential check: %d apps x %d machine configs, then %d fuzzed \
       programs\n%!"
      (List.length Workload.Apps.all)
      (List.length D.configs) cases;
    List.iter
      (fun (p : Workload.Profile.t) ->
        report p.name
          (D.check_program ~instrs:1_500 (Workload.Gen.program p)
             ~seed:(p.seed lxor 0x5EED)))
      Workload.Apps.all;
    let fuzz_configs =
      List.filter
        (fun (name, _) -> List.mem name [ "table_i"; "narrow2"; "wrong_path" ])
        D.configs
    in
    for i = 0 to cases - 1 do
      let s = seed + i in
      match
        D.check_program ~configs:fuzz_configs ~variant_configs:fuzz_configs
          ~instrs:500 (Workload.Fuzz.program_of_seed s) ~seed:((s * 7) + 1)
      with
      | Ok t -> count t
      | Error msg ->
        incr failures;
        Printf.eprintf "FAIL fuzz seed %d: %s\ngenome:\n%s\n%!" s msg
          (Workload.Fuzz.to_string (Workload.Fuzz.spec_of_seed s))
    done;
    if !failures = 0 then begin
      (* A program equal to one already checked is credited, not
         re-simulated: the first count covers every (program, config)
         pair, the second is the part simulated.  Pass lists that share
         a prefix apply it once: the last count is what was applied. *)
      Printf.printf
        "ok: %d retirements compared (%d simulated), no divergence\n\
         per-pass: %d pipeline variants checked after every pass (%d \
         distinct pass applications)\n"
        !events !simulated !pipelines !applications
    end
    else begin
      Printf.eprintf "%d check(s) failed\n" !failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differentially test the simulator, the trace expander and every \
          transform pass against the golden architectural model")
    Term.(const run $ cases_arg $ seed_arg)

(* ------------------------------ cache ----------------------------- *)

let cache_cmd =
  let dir_arg =
    let doc =
      "Cache directory (default: the $(b,CRITICS_CACHE_DIR) environment \
       variable)."
    in
    Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let open_store dir =
    match dir with
    | Some d -> Store.open_dir d
    | None -> (
      match Store.open_default () with
      | Some st -> st
      | None ->
        prerr_endline
          "critics cache: no cache directory — set CRITICS_CACHE_DIR or \
           pass --dir";
        exit 1)
  in
  let stat dir =
    let st = open_store dir in
    Printf.printf "dir:     %s\n" (Store.dir st);
    Printf.printf "format:  %s\n" Store.format_version;
    Printf.printf "code:    %s\n" (Store.code_version ());
    Printf.printf "entries: %d\n" (Store.entry_count st);
    Printf.printf "bytes:   %d\n" (Store.total_bytes st)
  in
  let clear dir =
    let st = open_store dir in
    let removed = Store.clear st in
    Printf.printf "removed %d entr%s from %s\n" removed
      (if removed = 1 then "y" else "ies")
      (Store.dir st)
  in
  let stat_cmd =
    Cmd.v
      (Cmd.info "stat"
         ~doc:
           "Show the store's location, versions, entry count and on-disk \
            size")
      Term.(const stat $ dir_arg)
  in
  let clear_cmd =
    Cmd.v
      (Cmd.info "clear" ~doc:"Remove every cached entry")
      Term.(const clear $ dir_arg)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect or clear the prepared-context store (the on-disk cache \
          bench and the harness reuse across runs when CRITICS_CACHE_DIR \
          is set)")
    [ stat_cmd; clear_cmd ]

(* ------------------------------ serve ----------------------------- *)

(* The fleet-scale ingest service: a synthetic population of per-user
   profile uploads (Population) pushed through the crash-recoverable
   sharded engine (Service.Engine) on the domain pool.  Each upload is
   sent once: the engine refuses a bad payload on every attempt, and a
   re-sent upload is a duplicate, so a rerun of serve is the retry. *)

let serve_cmd =
  let dir_arg =
    let doc = "Service state directory (created on first use)." in
    Arg.(value & opt string "_service" & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let users_arg =
    let doc =
      "Synthetic users per app; the workload is this times the 26 Table II \
       apps."
    in
    Arg.(value & opt int 40 & info [ "users" ] ~docv:"N" ~doc)
  in
  let shards_arg =
    let doc = "Shard count (fixed at the directory's creation)." in
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let every_arg =
    let doc = "WAL records per shard between compacting checkpoints." in
    Arg.(value & opt int 256 & info [ "checkpoint-every" ] ~docv:"N" ~doc)
  in
  let jobs_arg =
    let doc = "Ingest worker domains (default: core count)." in
    Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let chaos_arg =
    let doc =
      "Instead of serving, run the deterministic chaos sweep under \
       $(b,DIR/chaos-sweep): a fault injected at every IO index (sampled \
       down to at most $(docv) crash points), each case proving recovery \
       to the last acknowledged upload.  Exits 1 on any contract \
       violation."
    in
    Arg.(value & opt (some int) None & info [ "chaos" ] ~docv:"N" ~doc)
  in
  let progress_arg =
    let doc =
      "Append one flushed \"acked N\" line to $(docv) per acknowledged \
       upload (lets an external harness kill the service mid-ingest and \
       know exactly what was promised)."
    in
    Arg.(value & opt (some string) None & info [ "progress" ] ~docv:"FILE" ~doc)
  in
  let population users =
    List.map
      (fun (u : Workload.Population.upload) ->
        { Service.Chaos.up_id = u.id; up_app = u.app; up_payload = u.payload })
      (Workload.Population.generate ~users_per_app:users ())
  in
  let run_chaos dir users shards every max_cases =
    let uploads = population users in
    Printf.printf
      "chaos: %d uploads over %d shard(s), checkpoint every %d, at most %d \
       crash point(s)\n%!"
      (List.length uploads) shards every max_cases;
    let rep =
      Service.Chaos.sweep
        ~dir:(Filename.concat dir "chaos-sweep")
        ~shards ~checkpoint_every:every ~max_cases ~uploads ()
    in
    print_string (Service.Chaos.render rep);
    if rep.rep_violations > 0 then exit 1
  in
  let serve dir users shards every jobs chaos progress =
    match chaos with
    | Some n -> run_chaos dir users shards every n
    | None ->
      let uploads = population users in
      let cfg = Service.Engine.config ~shards ~checkpoint_every:every dir in
      let eng, r = Service.Engine.open_ cfg in
      Printf.printf
        "recovered %d upload(s) (%d replayed from WAL, %d stale skipped, %d \
         torn tail(s) repaired)\n\
         ingesting %d upload(s) from %d apps x %d users...\n\
         %!"
        r.rec_uploads r.rec_replayed r.rec_skipped r.rec_torn_tails
        (List.length uploads)
        (List.length Workload.Apps.all)
        users;
      let progress_oc =
        Option.map
          (fun p -> open_out_gen [ Open_append; Open_creat ] 0o644 p)
          progress
      in
      let progress_lock = Mutex.create () in
      let acked = ref 0 in
      let note_ack () =
        match progress_oc with
        | None -> ()
        | Some oc ->
          Mutex.lock progress_lock;
          incr acked;
          Printf.fprintf oc "acked %d\n" !acked;
          flush oc;
          Mutex.unlock progress_lock
      in
      let pool = Parallel.Pool.create ?jobs () in
      let t0 = Unix.gettimeofday () in
      let results_list =
        Parallel.Pool.map_list pool
          (fun (u : Service.Chaos.upload) ->
            let t = Unix.gettimeofday () in
            Service.Engine.ingest eng ~id:u.up_id ~app:u.up_app
              ~payload:u.up_payload
            |> Result.map (fun (ack : Service.Engine.ack) ->
                   note_ack ();
                   ( int_of_float ((Unix.gettimeofday () -. t) *. 1e6),
                     ack.ack_duplicate )))
          uploads
      in
      let wall_s = Unix.gettimeofday () -. t0 in
      let reg = Telemetry.Registry.create () in
      let lat = Telemetry.Registry.histogram reg "serve/ingest_us" in
      let ok = ref 0 and dups = ref 0 and failed = ref 0 in
      List.iter
        (function
          | Ok (us, dup) ->
            Telemetry.Registry.observe lat us;
            incr ok;
            if dup then incr dups
          | Error msg ->
            incr failed;
            Printf.eprintf "serve: upload failed: %s\n" msg)
        results_list;
      Service.Engine.checkpoint eng;
      let seqs = Service.Engine.shard_seqs eng in
      let runtime = Service.Engine.runtime eng in
      let rt name =
        Telemetry.Registry.counter_value
          (Telemetry.Registry.counter runtime name)
      in
      let total_uploads = Service.Engine.uploads eng in
      (* The aggregate's digest: a run restarted after a crash must end
         on the same one as an uninterrupted run. *)
      let state_digest =
        Digest.to_hex (Digest.string (Service.Engine.snapshot_bytes eng))
      in
      Service.Engine.close eng;
      let ups = float_of_int !ok /. Float.max wall_s 1e-9 in
      let p50 = Telemetry.Registry.quantile lat 0.5
      and p99 = Telemetry.Registry.quantile lat 0.99 in
      Printf.printf
        "acked %d upload(s) (%d duplicate(s), %d failed) in %.2fs — %.0f \
         uploads/s\n\
         ingest latency: p50 %d us, p99 %d us\n\
         checkpoints %d (failures %d, rotate failures %d)\n\
         shard seqs: [%s]\n\
         store now holds %d distinct upload(s)\n"
        !ok !dups !failed wall_s ups p50 p99 (rt "service/checkpoints")
        (rt "service/checkpoint_failures")
        (rt "service/rotate_failures")
        (String.concat "; "
           (Array.to_list (Array.map string_of_int seqs)))
        total_uploads;
      Option.iter close_out progress_oc;
      (match Service.Engine.fsck dir with
      | Error msg ->
        Printf.eprintf "fsck: %s\n" msg;
        exit 1
      | Ok rep ->
        if not (Service.Engine.clean ~strict:true rep) then begin
          prerr_endline "fsck after serving is not clean:";
          prerr_endline (Service.Engine.render rep);
          exit 1
        end);
      Printf.printf "state digest: %s\n%!" state_digest;
      if !failed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the crash-recoverable sharded profile-ingest service over a \
          synthetic upload population (or, with $(b,--chaos), prove its \
          durability contract under deterministic fault injection)")
    Term.(
      const serve $ dir_arg $ users_arg $ shards_arg $ every_arg $ jobs_arg
      $ chaos_arg $ progress_arg)

(* ------------------------------ store ----------------------------- *)

let store_cmd =
  let dir_arg =
    let doc = "Service state directory to check." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let strict_arg =
    let doc =
      "Also fail on torn WAL tails (right after a clean shutdown or a \
       recovery there must be none; right after a kill mid-append one is \
       expected)."
    in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let expect_arg =
    let doc =
      "Fail unless the store holds at least $(docv) distinct uploads \
       (acknowledged-upload preservation check for crash harnesses)."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "expect-min-uploads" ] ~docv:"N" ~doc)
  in
  let fsck dir strict expect =
    match Service.Engine.fsck dir with
    | Error msg ->
      prerr_endline ("fsck: " ^ msg);
      exit 1
    | Ok rep ->
      print_string (Service.Engine.render rep);
      let short =
        match expect with
        | Some n when rep.Service.Engine.total_uploads < n ->
          Printf.eprintf "fsck: expected at least %d upload(s), found %d\n" n
            rep.Service.Engine.total_uploads;
          true
        | _ -> false
      in
      if short || not (Service.Engine.clean ~strict rep) then exit 1
  in
  let fsck_cmd =
    Cmd.v
      (Cmd.info "fsck"
         ~doc:
           "Read-only integrity walk of a service directory: checkpoint \
            digests, WAL frames and digests, sequence continuity")
      Term.(const fsck $ dir_arg $ strict_arg $ expect_arg)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect the ingest service's durable state")
    [ fsck_cmd ]

(* ------------------------------ main ----------------------------- *)

let () =
  let info =
    Cmd.info "critics" ~version:Critics.version
      ~doc:"CritICs: critical instruction chains for mobile apps (MICRO'18)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ apps_cmd; config_cmd; schemes_cmd; run_cmd; compare_cmd;
            profile_cmd; characterize_cmd; experiment_cmd; trace_cmd;
            report_cmd; check_cmd; cache_cmd; serve_cmd; store_cmd ]))
