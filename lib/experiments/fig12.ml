type length_point = {
  n : int;
  speedup : float;
  fetch_saving : float;
  coverage : float;
}

type coverage_point = { fraction : float; speedup : float }

type result = { lengths : length_point list; coverage : coverage_point list }

(* Critic's passes and options from the scheme table, with the chain
   length cap replaced by [max_len]. *)
let apply_critic ~max_len ctx db =
  let options, passes = Critics.Scheme.pipeline Critics.Scheme.Critic in
  fst
    (Transform.Pipeline.run
       (Transform.Pass.env ~options:{ options with Transform.Pass.max_len } db)
       passes ctx.Critics.Run.program)

let run_transformed (ctx : Critics.Run.app_context) program =
  Pipeline.Cpu.run_stream Pipeline.Config.table_i (fun () ->
      Prog.Trace.Stream.of_program program ~seed:ctx.seed ctx.path)

let run h =
  let mobile = List.assoc "Mobile" Harness.suites in
  (* Both sensitivity sweeps re-transform and re-simulate per (setting,
     app): independent work, fanned out over the harness pool. *)
  let fan settings per_point = Harness.fan_out h settings mobile per_point in
  let lengths =
    List.map
      (fun (n, per_app) ->
        {
          n;
          speedup = Harness.mean (List.map (fun (s, _, _) -> s) per_app);
          fetch_saving = Harness.mean (List.map (fun (_, f, _) -> f) per_app);
          coverage = Harness.mean (List.map (fun (_, _, c) -> c) per_app);
        })
      (fan
         [ 2; 3; 4; 5; 6; 7; 8; 9 ]
         (fun n app ->
           let ctx = Harness.context h app in
           let base = Harness.stats h app Critics.Scheme.Baseline in
           let db = Profiler.Critic_db.exact_length n ctx.db in
           let st = run_transformed ctx (apply_critic ~max_len:n ctx db) in
           let cyc = float_of_int base.Pipeline.Stats.cycles in
           ( Critics.Run.speedup ~base st,
             float_of_int
               (base.Pipeline.Stats.fetch_idle_supply
               - st.Pipeline.Stats.fetch_idle_supply)
             /. cyc,
             Profiler.Critic_db.coverage db )))
  in
  let coverage =
    List.map
      (fun (fraction, per_app) ->
        { fraction; speedup = Harness.mean per_app })
      (fan
         [ 0.125; 0.25; 0.375; 0.5; 0.75; 1.0 ]
         (fun fraction app ->
           let ctx = Harness.context h app in
           let base = Harness.stats h app Critics.Scheme.Baseline in
           let db =
             Profiler.Profile_run.profile_stream ~fraction
               ~total_events:ctx.Critics.Run.event_count
               (Critics.Run.stream ctx Critics.Scheme.Baseline)
           in
           let st =
             run_transformed ctx
               (fst
                  (Critics.Scheme.compile Critics.Scheme.Critic db
                     ctx.Critics.Run.program))
           in
           Critics.Run.speedup ~base st))
  in
  { lengths; coverage }

let render r =
  let pct = Util.Stats.pct in
  let a =
    Util.Text_table.render
      ~header:[ "chain length n"; "speedup"; "fetch saving"; "coverage" ]
      (List.map
         (fun p ->
           [
             string_of_int p.n; pct p.speedup; pct p.fetch_saving;
             pct p.coverage;
           ])
         r.lengths)
  in
  let b =
    Util.Text_table.render
      ~header:[ "profiled fraction"; "speedup" ]
      (List.map
         (fun p ->
           [ Printf.sprintf "%.0f%%" (100.0 *. p.fraction); pct p.speedup ])
         r.coverage)
  in
  "Fig 12a: sensitivity to CritIC length (exact n)\n" ^ a
  ^ "\n\nFig 12b: sensitivity to profiling coverage\n" ^ b
