(* Tests for the experiment harness and the cheap experiment entries.
   The full figure suite runs in bench/main.exe; here we verify the
   machinery: caching, registry completeness, rendering and the worked
   example's result. *)

let test_registry_complete () =
  let ids = List.map (fun (e : Experiments.entry) -> e.id) Experiments.all in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " registered") true (List.mem id ids))
    [ "tab1"; "tab2"; "fig1"; "fig2"; "fig3"; "fig5"; "fig8"; "fig10";
      "fig11"; "fig12"; "fig13"; "ablations" ];
  Alcotest.(check bool) "find works" true (Experiments.find "fig10" <> None);
  Alcotest.(check bool) "find rejects unknown" true
    (Experiments.find "fig99" = None)

let test_tables_render () =
  let t1 = Experiments.Tables.table_i () in
  let t2 = Experiments.Tables.table_ii () in
  Alcotest.(check bool) "table I non-empty" true (String.length t1 > 100);
  Alcotest.(check bool) "table II non-empty" true (String.length t2 > 100)

let test_worked_example () =
  let c = Experiments.Worked_example.example () in
  Alcotest.(check bool) "chain-first is faster" true (c.saved_cycles > 0);
  Alcotest.(check bool) "schedules complete" true
    (c.fanout_first.cycles > 0 && c.chain_first.cycles > 0);
  let rendered = Experiments.Worked_example.render c in
  Alcotest.(check bool) "render non-empty" true (String.length rendered > 100)

let test_scheduler_respects_deps () =
  (* node 1 depends on node 0: it can never issue in cycle 0 *)
  let s =
    Experiments.Worked_example.schedule ~width:2 ~preds:[| []; [ 0 ] |]
      ~priority:(fun i -> i)
      ()
  in
  Alcotest.(check int) "two cycles" 2 s.cycles;
  (match s.order with
  | (0, first) :: _ ->
    Alcotest.(check (list int)) "only root in cycle 0" [ 0 ] first
  | _ -> Alcotest.fail "no schedule");
  (* all nodes issued exactly once *)
  let issued = List.concat_map snd s.order in
  Alcotest.(check (list int)) "all issued" [ 0; 1 ] (List.sort compare issued)

let test_harness_caches () =
  let h = Experiments.Harness.create ~instrs:10_000 () in
  let app = Option.get (Workload.Apps.find "Music") in
  let t0 = Unix.gettimeofday () in
  let a = Experiments.Harness.stats h app Critics.Scheme.Baseline in
  let cold = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  let b = Experiments.Harness.stats h app Critics.Scheme.Baseline in
  let warm = Unix.gettimeofday () -. t1 in
  Alcotest.(check int) "same result" a.cycles b.cycles;
  Alcotest.(check bool) "cached lookup much faster" true
    (warm < cold /. 10.0 || warm < 0.001)

let test_harness_speedup_zero_for_baseline () =
  let h = Experiments.Harness.create ~instrs:10_000 () in
  let app = Option.get (Workload.Apps.find "Music") in
  Alcotest.(check (float 1e-9)) "baseline speedup is zero" 0.0
    (Experiments.Harness.speedup h app Critics.Scheme.Baseline)

let test_parallel_determinism () =
  (* The acceptance bar for the batch engine: a jobs=4 harness must
     produce stat-for-stat identical results to a jobs=1 harness. *)
  let apps =
    List.map
      (fun n -> Option.get (Workload.Apps.find n))
      [ "Music"; "lbm" ]
  in
  let schemes =
    [ Critics.Scheme.Baseline; Critics.Scheme.Critic; Critics.Scheme.Hoist ]
  in
  (* Machines that share the Table I memory configuration and machines
     that change it: at jobs=4 the former race on each context's shared
     warm states, the latter each warm their own. *)
  let configs =
    Pipeline.Config.
      [ table_i; with_backend_prio table_i; with_perfect_branch table_i;
        with_4x_icache table_i; with_2x_fd table_i ]
  in
  let jobs_list =
    List.concat_map
      (fun app ->
        List.concat_map
          (fun scheme ->
            List.map
              (fun config -> Experiments.Harness.job ~config app scheme)
              configs)
          schemes)
      apps
  in
  let seq = Experiments.Harness.create ~instrs:8_000 ~jobs:1 () in
  let par = Experiments.Harness.create ~instrs:8_000 ~jobs:4 () in
  Experiments.Harness.run_batch seq jobs_list;
  Experiments.Harness.run_batch par jobs_list;
  List.iter
    (fun app ->
      List.iter
        (fun scheme ->
          List.iteri
            (fun i config ->
              let a = Experiments.Harness.stats seq ~config app scheme in
              let b = Experiments.Harness.stats par ~config app scheme in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s/config %d identical"
                   app.Workload.Profile.name (Critics.Scheme.name scheme) i)
                true (a = b))
            configs)
        schemes)
    apps

let test_memo_key_uses_config () =
  (* Regression: a custom ?config without a distinguishing name used to
     collide with the default entry in the memo table, returning stale
     table-I stats for the custom machine (and vice versa). *)
  let h = Experiments.Harness.create ~instrs:8_000 () in
  let app = Option.get (Workload.Apps.find "Music") in
  let default_stats = Experiments.Harness.stats h app Critics.Scheme.Baseline in
  let custom = { Pipeline.Config.table_i with iq = 8 } in
  let custom_stats =
    Experiments.Harness.stats h ~config:custom app Critics.Scheme.Baseline
  in
  Alcotest.(check bool) "custom config not served stale default stats" true
    (custom_stats.Pipeline.Stats.cycles <> default_stats.Pipeline.Stats.cycles);
  let direct =
    Critics.Run.stats ~config:custom
      (Experiments.Harness.context h app)
      Critics.Scheme.Baseline
  in
  Alcotest.(check int) "memoized custom stats match a direct run"
    direct.Pipeline.Stats.cycles custom_stats.Pipeline.Stats.cycles;
  (* default entry must be untouched by the custom run *)
  let again = Experiments.Harness.stats h app Critics.Scheme.Baseline in
  Alcotest.(check int) "default entry untouched" default_stats.cycles
    again.cycles;
  (* an explicit config structurally equal to the default shares the
     default's memo entry: same physical record comes back *)
  let explicit_stats =
    Experiments.Harness.stats h ~config:Pipeline.Config.table_i app
      Critics.Scheme.Baseline
  in
  Alcotest.(check bool) "equal configs share one memo entry" true
    (explicit_stats == again)

(* A database variant is keyed like a config: one equal to the
   prepared variant field by field is the prepared cell, under its
   app/scheme/<config digest> key; any other is an entry of its own.
   The probe table, enabled by telemetry, lists the memo's keys. *)
let test_memo_key_uses_variant () =
  let h = Experiments.Harness.create ~instrs:8_000 ~jobs:1 ~telemetry:1024 () in
  let app = Option.get (Workload.Apps.find "Music") in
  let keys () = List.map fst (Experiments.Harness.telemetry_probes h) in
  let stats ?variant () =
    Experiments.Harness.stats h ?variant app Critics.Scheme.Critic
  in
  let prepared = stats () in
  let prepared_key =
    "Music/critic/"
    ^ Digest.to_hex
        (Digest.string (Marshal.to_string Pipeline.Config.table_i []))
  in
  Alcotest.(check (list string)) "prepared key" [ prepared_key ] (keys ());
  let same = stats ~variant:Critics.Run.{ prepared with threshold = 4.0 } () in
  Alcotest.(check bool) "equal variant is the prepared cell" true
    (same == prepared);
  Alcotest.(check (list string)) "memo gains no key" [ prepared_key ] (keys ());
  let other = stats ~variant:Critics.Run.{ prepared with threshold = 2.0 } () in
  (match keys () with
  | [ a; b ] ->
    Alcotest.(check string) "prepared key kept" prepared_key a;
    Alcotest.(check bool) "variant key extends it" true
      (String.length b > String.length a
      && String.sub b 0 (String.length a + 1) = a ^ "/")
  | ks -> Alcotest.failf "expected two memo keys, got %d" (List.length ks));
  Alcotest.(check bool) "other variant, other stats" true (other <> prepared)

let test_policy_lab_default_cell_shares_memo () =
  (* The policy lab's (lru, next_line) machine is structurally equal to
     table_i, so its cells must come from the same memo entries as a
     plain default-machine run — the sweep's anchor row is the baseline
     row, bit for bit, not a re-simulation that could drift. *)
  Alcotest.(check bool) "policy-lab registered" true
    (Experiments.find "policy-lab" <> None);
  let default_config =
    Experiments.Policy_lab.config Mem.Replacement.Lru Mem.Hierarchy.Ip_next_line
  in
  Alcotest.(check bool) "default cell config equals table_i" true
    (default_config = Pipeline.Config.table_i);
  let h = Experiments.Harness.create ~instrs:8_000 () in
  let app = Option.get (Workload.Apps.find "Music") in
  let plain = Experiments.Harness.stats h app Critics.Scheme.Baseline in
  let cell =
    Experiments.Harness.stats h ~config:default_config app
      Critics.Scheme.Baseline
  in
  Alcotest.(check bool) "same memo entry (physical equality)" true
    (cell == plain)

let test_policy_lab_runs_small () =
  let h = Experiments.Harness.create ~instrs:6_000 () in
  let apps = [ Option.get (Workload.Apps.find "Music") ] in
  let r = Experiments.Policy_lab.run ~apps h in
  Alcotest.(check int) "12 cells (4 policies x 3 prefetchers)" 12
    (List.length r.Experiments.Policy_lab.cells);
  let default_cell =
    List.find
      (fun (c : Experiments.Policy_lab.cell) ->
        c.policy = Mem.Replacement.Lru && c.prefetch = Mem.Hierarchy.Ip_next_line)
      r.cells
  in
  Alcotest.(check (float 1e-9)) "default cell retention is 1 (or 0/0)"
    (if default_cell.speedup = 0.0 then 0.0 else 1.0)
    default_cell.retention;
  Alcotest.(check int) "one opportunity row" 1
    (List.length r.Experiments.Policy_lab.opps);
  let o = List.hd r.opps in
  Alcotest.(check bool) "predictable <= misses" true
    (o.Experiments.Policy_lab.predictable <= o.Experiments.Policy_lab.misses);
  let rendered = Experiments.Policy_lab.render r in
  Alcotest.(check bool) "render non-empty" true (String.length rendered > 100);
  let json = Experiments.Policy_lab.to_json r in
  Alcotest.(check bool) "json mentions cells" true
    (String.length json > 100
    && String.sub json 0 12 = "{ \"cells\": [")

let test_suites_structure () =
  Alcotest.(check int) "three suites" 3 (List.length Experiments.Harness.suites);
  List.iter
    (fun (name, apps) ->
      Alcotest.(check bool) (name ^ " non-empty") true (apps <> []))
    Experiments.Harness.suites

let () =
  Alcotest.run "experiments"
    [
      ( "machinery",
        [
          Alcotest.test_case "registry" `Quick test_registry_complete;
          Alcotest.test_case "tables" `Quick test_tables_render;
          Alcotest.test_case "worked example" `Quick test_worked_example;
          Alcotest.test_case "scheduler deps" `Quick test_scheduler_respects_deps;
          Alcotest.test_case "harness caching" `Quick test_harness_caches;
          Alcotest.test_case "baseline speedup" `Quick
            test_harness_speedup_zero_for_baseline;
          Alcotest.test_case "suites" `Quick test_suites_structure;
        ] );
      ( "batch engine",
        [
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_determinism;
          Alcotest.test_case "memo key uses config" `Quick
            test_memo_key_uses_config;
          Alcotest.test_case "memo key uses variant" `Quick
            test_memo_key_uses_variant;
        ] );
      ( "policy lab",
        [
          Alcotest.test_case "default cell shares memo" `Quick
            test_policy_lab_default_cell_shares_memo;
          Alcotest.test_case "small sweep" `Quick test_policy_lab_runs_small;
        ] );
    ]
