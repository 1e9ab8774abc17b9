type point = { label : string; speedup : float }

type result = {
  threshold : point list;
  metric : point list;
  cdp_penalty : point list;
  iq_size : point list;
  fetch_queue : point list;
  wrong_path : point list;
}

let default_apps () =
  List.filter_map Workload.Apps.find [ "Acrobat"; "Browser"; "Youtube" ]

let cdp_penalties = [ 0; 1; 2 ]
let iq_sizes = [ 16; 24; 48; 96 ]
let fetch_queues = [ 8; 16; 24; 48 ]

let jobs ?apps () =
  let apps = match apps with Some a -> a | None -> default_apps () in
  List.concat_map
    (fun app ->
      (Harness.job app Critics.Scheme.Baseline
      :: List.map
           (fun p ->
             Harness.job
               ~config:{ Pipeline.Config.table_i with cdp_decode_penalty = p }
               app Critics.Scheme.Critic)
           cdp_penalties)
      @ List.map
          (fun iq ->
            Harness.job
              ~config:{ Pipeline.Config.table_i with iq }
              app Critics.Scheme.Baseline)
          iq_sizes
      @ List.map
          (fun fq ->
            Harness.job
              ~config:{ Pipeline.Config.table_i with fetch_queue = fq }
              app Critics.Scheme.Baseline)
          fetch_queues
      @ [
          Harness.job
            ~config:{ Pipeline.Config.table_i with wrong_path_fetch = true }
            app Critics.Scheme.Baseline;
        ])
    apps

let run ?apps h =
  let apps = match apps with Some a -> a | None -> default_apps () in
  let mean_over f = Harness.mean (List.map f apps) in
  (* Fan settings × apps out over the harness pool: each task profiles
     the trace afresh and runs a full simulation. *)
  let sweep settings label speedup_of =
    List.map
      (fun (s, group) -> { label = label s; speedup = Harness.mean group })
      (Harness.fan_out h settings apps speedup_of)
  in
  let critic_speedup_with_db make_db (app : Workload.Profile.t) =
    let ctx = Harness.context h app in
    let base = Harness.stats h app Critics.Scheme.Baseline in
    let db = make_db ctx in
    let program =
      fst
        (Critics.Scheme.compile Critics.Scheme.Critic db
           ctx.Critics.Run.program)
    in
    let st =
      Pipeline.Cpu.run_stream Pipeline.Config.table_i (fun () ->
          Prog.Trace.Stream.of_program program ~seed:ctx.seed ctx.path)
    in
    Critics.Run.speedup ~base st
  in
  let threshold =
    sweep [ 2.0; 3.0; 4.0; 6.0; 8.0 ]
      (fun t -> Printf.sprintf "threshold %.0f" t)
      (fun t ->
        critic_speedup_with_db (fun ctx ->
            Profiler.Profile_run.profile_stream ~threshold:t
              ~total_events:ctx.Critics.Run.event_count
              (Critics.Run.stream ctx Critics.Scheme.Baseline)))
  in
  let metric =
    sweep Profiler.Metric.all Profiler.Metric.name (fun m ->
        critic_speedup_with_db (fun ctx ->
            Profiler.Profile_run.profile_stream ~metric:m
              ~total_events:ctx.Critics.Run.event_count
              (Critics.Run.stream ctx Critics.Scheme.Baseline)))
  in
  let cdp_penalty =
    List.map
      (fun p ->
        let config = { Pipeline.Config.table_i with cdp_decode_penalty = p } in
        {
          label = Printf.sprintf "cdp penalty %d" p;
          speedup =
            mean_over (fun app ->
                let base = Harness.stats h app Critics.Scheme.Baseline in
                Critics.Run.speedup ~base
                  (Harness.stats h ~config app Critics.Scheme.Critic));
        })
      cdp_penalties
  in
  let machine_point name config =
    (* Baseline-machine sensitivity, reported as cycle change of the
       *baseline* scheme on the modified machine. *)
    {
      label = name;
      speedup =
        mean_over (fun app ->
            let base = Harness.stats h app Critics.Scheme.Baseline in
            Critics.Run.speedup ~base
              (Harness.stats h ~config app Critics.Scheme.Baseline));
    }
  in
  let iq_size =
    List.map
      (fun iq ->
        machine_point
          (Printf.sprintf "iq %d" iq)
          { Pipeline.Config.table_i with iq })
      iq_sizes
  in
  let fetch_queue =
    List.map
      (fun fq ->
        machine_point
          (Printf.sprintf "fetchq %d" fq)
          { Pipeline.Config.table_i with fetch_queue = fq })
      fetch_queues
  in
  let wrong_path =
    [
      machine_point "wrong-path fetch on"
        { Pipeline.Config.table_i with wrong_path_fetch = true };
    ]
  in
  { threshold; metric; cdp_penalty; iq_size; fetch_queue; wrong_path }

let render r =
  let section title points =
    title ^ "\n"
    ^ Util.Text_table.render ~header:[ "setting"; "effect" ]
        (List.map (fun p -> [ p.label; Util.Stats.pct p.speedup ]) points)
  in
  String.concat "\n\n"
    [
      section "Ablation: CritIC speedup vs criticality threshold" r.threshold;
      section
        "Ablation: CritIC speedup vs chain-criticality metric (future work)"
        r.metric;
      section "Ablation: CritIC speedup vs CDP decode penalty" r.cdp_penalty;
      section "Ablation: baseline cycles vs issue-queue size" r.iq_size;
      section "Ablation: baseline cycles vs fetch-queue depth" r.fetch_queue;
      section "Ablation: wrong-path fetch modelling (i-cache pollution)"
        r.wrong_path;
    ]
