type cell = {
  policy : Mem.Replacement.kind;
  prefetch : Mem.Hierarchy.iprefetch;
  app : string;
  base_cycles : int;
  fetch_stall : int;
  speedup : float;
  retention : float;
}

type opportunity = {
  opp_app : string;
  misses : int;
  predictable : int;
  fraction : float;
}

type result = {
  apps : string list;
  cells : cell list;
  opps : opportunity list;
}

let policies = Mem.Replacement.all_kinds
let prefetchers = Mem.Hierarchy.all_iprefetch

let default_apps () =
  List.filter_map Workload.Apps.find [ "Acrobat"; "Browser"; "Youtube" ]

let config policy prefetch =
  {
    Pipeline.Config.table_i with
    mem =
      {
        Pipeline.Config.table_i.mem with
        l1i_policy = policy;
        l1i_prefetch = prefetch;
      };
  }

(* Opportunity counters ride on an otherwise-default baseline run; the
   mode is observational, so only the two new counters differ from the
   default cell's stats. *)
let opportunity_config =
  {
    Pipeline.Config.table_i with
    mem = { Pipeline.Config.table_i.mem with l1i_opportunity = true };
  }

let jobs ?apps () =
  let apps = match apps with Some a -> a | None -> default_apps () in
  List.concat_map
    (fun app ->
      Harness.job ~config:opportunity_config app Critics.Scheme.Baseline
      :: List.concat_map
           (fun p ->
             List.concat_map
               (fun f ->
                 let config = config p f in
                 [
                   Harness.job ~config app Critics.Scheme.Baseline;
                   Harness.job ~config app Critics.Scheme.Critic;
                 ])
               prefetchers)
           policies)
    apps

let run ?apps h =
  let apps = match apps with Some a -> a | None -> default_apps () in
  let cell_speedup (app : Workload.Profile.t) p f =
    let config = config p f in
    let base = Harness.stats h ~config app Critics.Scheme.Baseline in
    let critic = Harness.stats h ~config app Critics.Scheme.Critic in
    (base, Critics.Run.speedup ~base critic)
  in
  let cells =
    List.concat_map
      (fun (app : Workload.Profile.t) ->
        (* Retention is measured against the default machine's win. *)
        let _, default_speedup =
          cell_speedup app Mem.Replacement.Lru Mem.Hierarchy.Ip_next_line
        in
        List.concat_map
          (fun p ->
            List.map
              (fun f ->
                let base, speedup = cell_speedup app p f in
                {
                  policy = p;
                  prefetch = f;
                  app = app.name;
                  base_cycles = base.Pipeline.Stats.cycles;
                  fetch_stall = base.Pipeline.Stats.fetch_idle_supply;
                  speedup;
                  retention =
                    (if default_speedup = 0.0 then 0.0
                     else speedup /. default_speedup);
                })
              prefetchers)
          policies)
      apps
  in
  let opps =
    List.map
      (fun (app : Workload.Profile.t) ->
        let st =
          Harness.stats h ~config:opportunity_config app
            Critics.Scheme.Baseline
        in
        {
          opp_app = app.name;
          misses = st.Pipeline.Stats.iopp_misses;
          predictable = st.Pipeline.Stats.iopp_predictable;
          fraction = Pipeline.Stats.opportunity_fraction st;
        })
      apps
  in
  {
    apps = List.map (fun (p : Workload.Profile.t) -> p.name) apps;
    cells;
    opps;
  }

let variant_label p f =
  Mem.Replacement.kind_name p ^ " + " ^ Mem.Hierarchy.iprefetch_name f

let render r =
  let find app p f =
    List.find
      (fun c -> c.app = app && c.policy = p && c.prefetch = f)
      r.cells
  in
  let variant_rows per_cell =
    List.concat_map
      (fun p ->
        List.map
          (fun f ->
            variant_label p f
            :: List.map (fun app -> per_cell (find app p f)) r.apps)
          prefetchers)
      policies
  in
  let stall_table =
    Util.Text_table.render
      ~header:("policy + i-prefetch" :: r.apps)
      (variant_rows (fun c -> string_of_int c.fetch_stall))
  in
  let retention_table =
    Util.Text_table.render
      ~header:("policy + i-prefetch" :: r.apps)
      (variant_rows (fun c ->
           Printf.sprintf "%s (%.2f)" (Util.Stats.pct c.speedup) c.retention))
  in
  let opp_table =
    Util.Text_table.render
      ~header:[ "app"; "line misses"; "predictable"; "fraction" ]
      (List.map
         (fun o ->
           [
             o.opp_app;
             string_of_int o.misses;
             string_of_int o.predictable;
             Util.Stats.pct o.fraction;
           ])
         r.opps)
  in
  "Baseline fetch-stall cycles (supply side) per i-cache policy x \
   prefetcher\n" ^ stall_table
  ^ "\n\nCritIC speedup under each machine (retention vs lru + \
     next_line)\n" ^ retention_table
  ^ "\n\nPrefetch opportunity (Zhao-style): i-cache misses predictable \
     from prior fetch history\n" ^ opp_table
