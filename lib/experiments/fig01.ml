type suite_row = {
  suite : string;
  prefetch_speedup : float;
  prioritize_speedup : float;
  critical_fraction : float;
}

type gap_row = {
  suite : string;
  none : float;
  by_gap : float array;
  more : float;
}

type result = { rows : suite_row list; gaps : gap_row list }

let prefetch_config =
  Pipeline.Config.with_critical_load_prefetch Pipeline.Config.table_i

let prio_config = Pipeline.Config.with_backend_prio Pipeline.Config.table_i

let jobs () =
  List.concat_map
    (fun app ->
      [
        Harness.job app Critics.Scheme.Baseline;
        Harness.job ~config:prefetch_config app Critics.Scheme.Baseline;
        Harness.job ~config:prio_config app Critics.Scheme.Baseline;
      ])
    (List.concat_map snd Harness.suites)

let run h =
  let rows =
    List.map
      (fun (suite, apps) ->
        let pf =
          Harness.mean
            (List.map
               (fun app ->
                 Harness.speedup h ~config:prefetch_config app
                   Critics.Scheme.Baseline)
               apps)
        in
        let prio =
          Harness.mean
            (List.map
               (fun app ->
                 Harness.speedup h ~config:prio_config app
                   Critics.Scheme.Baseline)
               apps)
        in
        let crit =
          Harness.mean
            (List.map
               (fun app ->
                 Pipeline.Stats.critical_fraction
                   (Harness.stats h app Critics.Scheme.Baseline))
               apps)
        in
        {
          suite;
          prefetch_speedup = pf;
          prioritize_speedup = prio;
          critical_fraction = crit;
        })
      Harness.suites
  in
  let gaps =
    List.map
      (fun (suite, apps) ->
        let total = ref 0 in
        let none = ref 0 in
        let by_gap = Array.make 6 0 in
        let more = ref 0 in
        List.iter
          (fun app ->
            let db = (Harness.context h app).Critics.Run.db in
            List.iter
              (fun (gap, count) ->
                total := !total + count;
                if gap < 0 then none := !none + count
                else if gap <= 5 then by_gap.(gap) <- by_gap.(gap) + count
                else more := !more + count)
              (Util.Dist.Histogram.bins db.chain_gaps))
          apps;
        let f x = float_of_int x /. float_of_int (max 1 !total) in
        {
          suite;
          none = f !none;
          by_gap = Array.map f by_gap;
          more = f !more;
        })
      Harness.suites
  in
  { rows; gaps }

let render r =
  let pct = Util.Stats.pct in
  let a =
    Util.Text_table.render
      ~header:
        [ "Suite"; "Prefetch critical loads"; "Prioritize at ALU";
          "% critical instrs" ]
      (List.map
         (fun (row : suite_row) ->
           [
             row.suite;
             pct row.prefetch_speedup;
             pct row.prioritize_speedup;
             pct row.critical_fraction;
           ])
         r.rows)
  in
  let b =
    Util.Text_table.render
      ~header:
        [ "Suite"; "none"; "gap=0"; "1"; "2"; "3"; "4"; "5"; ">5" ]
      (List.map
         (fun (g : gap_row) ->
           g.suite :: pct g.none
           :: (Array.to_list g.by_gap |> List.map pct)
           @ [ pct g.more ])
         r.gaps)
  in
  "Fig 1a: single-instruction criticality optimizations\n" ^ a
  ^ "\n\nFig 1b: low-fanout gaps between dependent critical instructions\n"
  ^ b
