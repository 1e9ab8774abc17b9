type suite_row = {
  suite : string;
  max_length : int;
  p99_length : float;
  mean_length : float;
  max_spread : int;
  p99_spread : float;
}

type coverage_point = { rank_fraction : float; coverage : float }

type result = {
  rows : suite_row list;
  mobile_coverage : coverage_point list;
  mobile_convertible : coverage_point list;
  convertible_site_fraction : float;
}

let percentile_of_histogram h p =
  let total = Util.Dist.Histogram.count h in
  if total = 0 then 0.0
  else begin
    let target = int_of_float (p /. 100.0 *. float_of_int total) in
    let bins = Util.Dist.Histogram.bins h in
    let rec go acc = function
      | [] -> 0.0
      | (v, c) :: rest ->
        if acc + c >= target then float_of_int v else go (acc + c) rest
    in
    go 0 bins
  end

(* Large-window profiles, apart from the compiler-oriented prepared
   databases: the figure is about raw IC shapes, and 2048 instructions
   are enough to expose SPEC's long loop-carried chains. *)
let wide = Critics.Run.{ prepared with window = 2048 }

let run h =
  (* One variant database per app, batched and stored by the harness;
     per-suite grouping and order are preserved. *)
  Harness.run_batch h
    (List.concat_map
       (fun (_, apps) -> List.map (Harness.context_job ~variant:wide) apps)
       Harness.suites);
  let dbs =
    List.map
      (fun (suite, apps) ->
        (suite, List.map (fun app -> Harness.database h app wide) apps))
      Harness.suites
  in
  let rows =
    List.map
      (fun (suite, dbs) ->
        let merge f =
          List.fold_left
            (fun acc db ->
              let h = f db in
              max acc (Util.Dist.Histogram.max_value h))
            0 dbs
        in
        let pct_mean f p =
          Harness.mean (List.map (fun db -> percentile_of_histogram (f db) p) dbs)
        in
        let mean_len =
          Harness.mean
            (List.map
               (fun (db : Profiler.Critic_db.t) ->
                 Util.Dist.Histogram.mean db.ic_lengths)
               dbs)
        in
        {
          suite;
          max_length = merge (fun (db : Profiler.Critic_db.t) -> db.ic_lengths);
          p99_length =
            pct_mean (fun (db : Profiler.Critic_db.t) -> db.ic_lengths) 99.0;
          mean_length = mean_len;
          max_spread = merge (fun (db : Profiler.Critic_db.t) -> db.ic_spreads);
          p99_spread =
            pct_mean (fun (db : Profiler.Critic_db.t) -> db.ic_spreads) 99.0;
        })
      dbs
  in
  (* Fig 5b over the mobile suite, using the compiler databases. *)
  let mobile = List.assoc "Mobile" Harness.suites in
  (* Average the per-app CDFs on a common rank grid. *)
  let cdf convertible_only =
    List.init 10 (fun i ->
        let rf = float_of_int (i + 1) /. 10.0 in
        let values =
          List.filter_map
            (fun app ->
              let pts =
                Profiler.Critic_db.coverage_cdf ~convertible_only
                  (Harness.context h app).Critics.Run.db
              in
              let below = List.filter (fun (r, _) -> r <= rf) pts in
              match List.rev below with
              | (_, c) :: _ -> Some c
              | [] -> None)
            mobile
        in
        { rank_fraction = rf; coverage = Harness.mean values })
  in
  let convertible_site_fraction =
    let totals =
      List.map
        (fun app ->
          let db = (Harness.context h app).Critics.Run.db in
          let n = List.length db.sites in
          let c =
            List.length
              (List.filter (fun (s : Profiler.Critic_db.site) -> s.convertible)
                 db.sites)
          in
          if n = 0 then 1.0 else float_of_int c /. float_of_int n)
        mobile
    in
    Harness.mean totals
  in
  {
    rows;
    mobile_coverage = cdf false;
    mobile_convertible = cdf true;
    convertible_site_fraction;
  }

let render r =
  let a =
    Util.Text_table.render
      ~header:
        [ "Suite"; "max IC len"; "p99 len"; "mean len"; "max spread";
          "p99 spread" ]
      (List.map
         (fun row ->
           [
             row.suite;
             string_of_int row.max_length;
             Printf.sprintf "%.0f" row.p99_length;
             Printf.sprintf "%.1f" row.mean_length;
             string_of_int row.max_spread;
             Printf.sprintf "%.0f" row.p99_spread;
           ])
         r.rows)
  in
  let b =
    Util.Text_table.render
      ~header:[ "unique-chain rank"; "coverage (all)"; "coverage (16-bit ok)" ]
      (List.map2
         (fun (p : coverage_point) (q : coverage_point) ->
           [
             Printf.sprintf "%.0f%%" (100.0 *. p.rank_fraction);
             Util.Stats.pct p.coverage;
             Util.Stats.pct q.coverage;
           ])
         r.mobile_coverage r.mobile_convertible)
  in
  Printf.sprintf
    "Fig 5a: IC length and spread\n%s\n\n\
     Fig 5b: coverage CDF by unique CritICs (mobile)\n%s\n\
     Fully convertible unique sites: %s (paper: 95.5%%)"
    a b
    (Util.Stats.pct r.convertible_site_fraction)
