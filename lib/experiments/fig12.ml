type length_point = {
  n : int;
  speedup : float;
  fetch_saving : float;
  coverage : float;
}

type coverage_point = { fraction : float; speedup : float }

type result = { lengths : length_point list; coverage : coverage_point list }

let chain_lengths = [ 2; 3; 4; 5; 6; 7; 8; 9 ]
let fractions = [ 0.125; 0.25; 0.375; 0.5; 0.75; 1.0 ]
let exact n = Critics.Run.{ prepared with exact = Some n }
let covering fraction = Critics.Run.{ prepared with fraction }

let run h =
  let mobile = List.assoc "Mobile" Harness.suites in
  let critic = Critics.Scheme.Critic in
  (* Every point of both sweeps is Critic compiled from a database
     variant: harness cells, batched, memoized and stored like any
     other. *)
  Harness.run_batch h
    (List.concat_map
       (fun app ->
         Harness.job app Critics.Scheme.Baseline
         :: List.map
              (fun variant -> Harness.job ~variant app critic)
              (List.map exact chain_lengths @ List.map covering fractions))
       mobile);
  let mean_over f = Harness.mean (List.map f mobile) in
  let lengths =
    List.map
      (fun n ->
        let variant = exact n in
        {
          n;
          speedup =
            mean_over (fun app -> Harness.speedup h ~variant app critic);
          fetch_saving =
            mean_over (fun app ->
                let base = Harness.stats h app Critics.Scheme.Baseline in
                let st = Harness.stats h ~variant app critic in
                float_of_int
                  (base.Pipeline.Stats.fetch_idle_supply
                  - st.Pipeline.Stats.fetch_idle_supply)
                /. float_of_int base.Pipeline.Stats.cycles);
          coverage =
            (* The context's own database cut to exactly n: nothing is
               profiled, so nothing is memoized or stored. *)
            mean_over (fun app ->
                Profiler.Critic_db.coverage
                  (Critics.Run.database (Harness.context h app) variant));
        })
      chain_lengths
  in
  let coverage =
    List.map
      (fun fraction ->
        {
          fraction;
          speedup =
            mean_over (fun app ->
                Harness.speedup h ~variant:(covering fraction) app critic);
        })
      fractions
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
