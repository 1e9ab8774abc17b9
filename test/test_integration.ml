(* End-to-end integration tests over the public Critics facade, plus
   the qualitative shape assertions of DESIGN.md §5. *)

let instrs = 40_000

let mobile_ctx =
  lazy (Critics.Run.prepare ~instrs (Option.get (Workload.Apps.find "Acrobat")))

let spec_ctx =
  lazy (Critics.Run.prepare ~instrs (Option.get (Workload.Apps.find "lbm")))

let test_all_schemes_run () =
  let ctx = Lazy.force mobile_ctx in
  let base = Critics.Run.stats ctx Critics.Scheme.Baseline in
  List.iter
    (fun scheme ->
      let st = Critics.Run.stats ctx scheme in
      Alcotest.(check bool)
        (Critics.Scheme.name scheme ^ " completes")
        true (st.cycles > 0);
      Alcotest.(check int)
        (Critics.Scheme.name scheme ^ " preserves work")
        base.committed_work st.committed_work)
    Critics.Scheme.all

let test_speedup_sane () =
  let ctx = Lazy.force mobile_ctx in
  let base = Critics.Run.stats ctx Critics.Scheme.Baseline in
  List.iter
    (fun scheme ->
      let s = Critics.Run.speedup ~base (Critics.Run.stats ctx scheme) in
      Alcotest.(check bool)
        (Critics.Scheme.name scheme ^ " within sane range")
        true
        (s > -0.5 && s < 1.0))
    Critics.Scheme.all

let test_critic_beats_hoist_on_mobile () =
  let ctx = Lazy.force mobile_ctx in
  let base = Critics.Run.stats ctx Critics.Scheme.Baseline in
  let hoist =
    Critics.Run.speedup ~base (Critics.Run.stats ctx Critics.Scheme.Hoist)
  in
  let critic =
    Critics.Run.speedup ~base (Critics.Run.stats ctx Critics.Scheme.Critic)
  in
  Alcotest.(check bool) "critic positive" true (critic > 0.0);
  Alcotest.(check bool) "critic > hoist" true (critic > hoist)

let test_critic_converts_selectively () =
  let ctx = Lazy.force mobile_ctx in
  let critic = Critics.Run.stats ctx Critics.Scheme.Critic in
  let opp16 = Critics.Run.stats ctx Critics.Scheme.Opp16 in
  Alcotest.(check bool) "critic converts far fewer instructions" true
    (critic.thumb_committed * 3 < opp16.thumb_committed)

let test_baselines_shape () =
  (* single-instruction criticality: helps SPEC, not mobile *)
  let spec = Lazy.force spec_ctx in
  let mobile = Lazy.force mobile_ctx in
  let speedup_with config ctx =
    let base = Critics.Run.stats ctx Critics.Scheme.Baseline in
    Critics.Run.speedup ~base
      (Critics.Run.stats ~config ctx Critics.Scheme.Baseline)
  in
  let prefetch =
    Critics.Pipeline.Config.with_critical_load_prefetch
      Critics.Pipeline.Config.table_i
  in
  let spec_gain = speedup_with prefetch spec in
  let mobile_gain = speedup_with prefetch mobile in
  Alcotest.(check bool) "prefetching helps SPEC" true (spec_gain > 0.02);
  Alcotest.(check bool) "prefetching does little for mobile" true
    (mobile_gain < spec_gain /. 2.0)

let test_fetch_bound_contrast () =
  let mobile = Critics.Run.stats (Lazy.force mobile_ctx) Critics.Scheme.Baseline in
  let spec = Critics.Run.stats (Lazy.force spec_ctx) Critics.Scheme.Baseline in
  let supply_share (s : Critics.Pipeline.Stats.t) =
    float_of_int s.fetch_idle_supply /. float_of_int s.cycles
  in
  let backpressure_share (s : Critics.Pipeline.Stats.t) =
    float_of_int s.fetch_idle_backpressure /. float_of_int s.cycles
  in
  Alcotest.(check bool) "mobile is fetch-supply bound vs SPEC" true
    (supply_share mobile > supply_share spec);
  Alcotest.(check bool) "SPEC is backpressure bound vs mobile" true
    (backpressure_share spec > backpressure_share mobile)

let test_energy_breakdown () =
  let ctx = Lazy.force mobile_ctx in
  let base = Critics.Run.stats ctx Critics.Scheme.Baseline in
  let b = Critics.Energy.Model.of_stats base in
  let parts = b.cpu +. b.icache +. b.dcache +. b.l2 +. b.dram +. b.rest in
  Alcotest.(check (float 1e-6)) "breakdown sums to total" b.total parts;
  let critic = Critics.Run.stats ctx Critics.Scheme.Critic in
  let saving = Critics.Run.energy ~base critic in
  Alcotest.(check bool) "system saving consistent with components" true
    (abs_float
       (saving.system
       -. (saving.cpu_contrib +. saving.icache_contrib
          +. saving.memory_contrib +. saving.rest_contrib
          +. ((base.l1d.accesses - critic.l1d.accesses |> float_of_int) *. 0.0)))
    < 0.02)

let test_macro_ideal_upper_bound () =
  let ctx = Lazy.force mobile_ctx in
  let base = Critics.Run.stats ctx Critics.Scheme.Baseline in
  let macro = Critics.Run.stats ctx Critics.Scheme.Macro_ideal in
  (* the fused chains preserve the work and never add instructions *)
  Alcotest.(check int) "work preserved" base.committed_work
    macro.committed_work;
  Alcotest.(check int) "no cdp markers in macro mode" 0 macro.cdp_markers;
  Alcotest.(check bool) "macro bound at least baseline" true
    (Critics.Run.speedup ~base macro > -0.02)

let test_scheme_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "of_string roundtrips" true
        (Critics.Scheme.of_string (Critics.Scheme.name s) = Some s))
    Critics.Scheme.all;
  Alcotest.(check bool) "unknown scheme" true
    (Critics.Scheme.of_string "nope" = None)

let test_apps_table () =
  Alcotest.(check int) "10 mobile apps" 10 (List.length Workload.Apps.mobile);
  Alcotest.(check int) "8 spec int" 8 (List.length Workload.Apps.spec_int);
  Alcotest.(check int) "8 spec float" 8 (List.length Workload.Apps.spec_float);
  List.iter
    (fun (p : Workload.Profile.t) -> Workload.Profile.validate p)
    Workload.Apps.all;
  (* names unique *)
  let names = List.map (fun (p : Workload.Profile.t) -> p.name) Workload.Apps.all in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_characterize () =
  let ctx = Lazy.force mobile_ctx in
  let c =
    Workload.Characterize.of_stream
      (Critics.Run.stream ctx Critics.Scheme.Baseline)
  in
  Alcotest.(check bool) "mix sums to ~1" true
    (abs_float (List.fold_left (fun a (_, v) -> a +. v) 0.0 c.mix -. 1.0)
    < 1e-6);
  Alcotest.(check bool) "alu dominates a mobile app" true
    (fst (List.hd c.mix) = "alu");
  Alcotest.(check bool) "code footprint positive" true
    (c.touched_code_bytes > 0);
  Alcotest.(check bool) "render non-empty" true
    (String.length (Workload.Characterize.render c) > 100)

let test_samples_differ () =
  let app = Option.get (Workload.Apps.find "Music") in
  let a = Critics.Run.prepare ~instrs:10_000 ~sample:0 app in
  let b = Critics.Run.prepare ~instrs:10_000 ~sample:1 app in
  Alcotest.(check bool) "samples take different paths" true
    (a.path <> b.path);
  (* same program in both samples *)
  Alcotest.(check int) "same code" 
    (Prog.Program.instr_count a.program)
    (Prog.Program.instr_count b.program)

let test_transform_cache () =
  (* A fresh context so counts aren't polluted by the shared lazies. *)
  let ctx =
    Critics.Run.prepare ~instrs:5_000
      (Option.get (Workload.Apps.find "Music"))
  in
  Alcotest.(check int) "no transforms yet" 0 (Critics.Run.transform_count ctx);
  let a = Critics.Run.stats ctx Critics.Scheme.Baseline in
  let b = Critics.Run.stats ctx Critics.Scheme.Critic in
  (* alternating back to an already-transformed scheme must hit the
     cache, and baseline must never occupy a slot *)
  let a' = Critics.Run.stats ctx Critics.Scheme.Baseline in
  let b' = Critics.Run.stats ctx Critics.Scheme.Critic in
  Alcotest.(check int) "critic pipeline ran exactly once" 1
    (Critics.Run.transform_count ctx);
  Alcotest.(check int) "baseline reproducible" a.cycles a'.cycles;
  Alcotest.(check int) "critic reproducible" b.cycles b'.cycles;
  (* One slot: Opp16_critic compiles its whole pass list (Critic's, then
     opp16) and displaces Critic, so going back to Critic compiles
     again. *)
  List.iter
    (fun s -> ignore (Critics.Run.transformed ctx s))
    Critics.Scheme.[ Critic; Opp16_critic; Critic ];
  Alcotest.(check int) "critic, opp16+critic, critic: three compiles" 3
    (Critics.Run.transform_count ctx)

let test_find_case_insensitive () =
  Alcotest.(check bool) "lowercase lookup" true
    (Workload.Apps.find "acrobat" <> None);
  Alcotest.(check bool) "unknown app" true (Workload.Apps.find "nope" = None)

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "all schemes run" `Slow test_all_schemes_run;
          Alcotest.test_case "speedups sane" `Slow test_speedup_sane;
          Alcotest.test_case "critic > hoist (mobile)" `Slow
            test_critic_beats_hoist_on_mobile;
          Alcotest.test_case "selective conversion" `Slow
            test_critic_converts_selectively;
          Alcotest.test_case "baseline shape" `Slow test_baselines_shape;
          Alcotest.test_case "fetch-bound contrast" `Slow
            test_fetch_bound_contrast;
          Alcotest.test_case "energy breakdown" `Slow test_energy_breakdown;
          Alcotest.test_case "macro ideal" `Slow test_macro_ideal_upper_bound;
        ] );
      ( "api",
        [
          Alcotest.test_case "scheme roundtrip" `Quick test_scheme_roundtrip;
          Alcotest.test_case "apps table" `Quick test_apps_table;
          Alcotest.test_case "characterize" `Slow test_characterize;
          Alcotest.test_case "samples differ" `Quick test_samples_differ;
          Alcotest.test_case "transform cache" `Slow test_transform_cache;
          Alcotest.test_case "find" `Quick test_find_case_insensitive;
        ] );
    ]
