type result = {
  apps : string list;
  speedups : (string * float list) list;
  pass_reports : (string * (string * Transform.Report.t) list) list;
}

let schemes =
  [ Critics.Scheme.Hoist; Critics.Scheme.Narrow_only;
    Critics.Scheme.Critic_reorder; Critics.Scheme.Critic ]

let default_apps () =
  List.filter_map Workload.Apps.find [ "Acrobat"; "Browser"; "Youtube" ]

let jobs ?apps () =
  let apps = match apps with Some a -> a | None -> default_apps () in
  List.concat_map
    (fun app ->
      List.map
        (fun s -> Harness.job app s)
        (Critics.Scheme.Baseline :: schemes))
    apps

let run ?apps h =
  let apps = match apps with Some a -> a | None -> default_apps () in
  let speedups =
    List.map
      (fun s ->
        ( Critics.Scheme.name s,
          List.map (fun app -> Harness.speedup h app s) apps ))
      schemes
  in
  (* Re-run Critic's pass list pass by pass (cheap next to the
     simulations above) to expose each stage's own report rather than
     the composite sum the scheme cache stores. *)
  let options, passes = Critics.Scheme.pipeline Critics.Scheme.Critic in
  let pass_reports =
    List.map
      (fun (app : Workload.Profile.t) ->
        let ctx = Harness.context h app in
        let env = Transform.Pass.env ~options ctx.Critics.Run.db in
        let _, rows =
          List.fold_left
            (fun (p, acc) (pass : Transform.Pass.t) ->
              let p', r = pass.Transform.Pass.apply env p in
              (p', (pass.Transform.Pass.name, r) :: acc))
            (ctx.Critics.Run.program, []) passes
        in
        (app.name, List.rev rows))
      apps
  in
  {
    apps = List.map (fun (p : Workload.Profile.t) -> p.name) apps;
    speedups;
    pass_reports;
  }

let render r =
  let speedup_table =
    Util.Text_table.render
      ~header:("scheme" :: r.apps)
      (List.map
         (fun (name, per) -> name :: List.map Util.Stats.pct per)
         r.speedups)
  in
  let field_names =
    List.map fst (Transform.Report.fields Transform.Report.zero)
  in
  let report_rows =
    List.concat_map
      (fun (app, rows) ->
        List.map
          (fun (pass, rep) ->
            app :: pass
            :: List.map
                 (fun (_, v) -> string_of_int v)
                 (Transform.Report.fields rep))
          rows)
      r.pass_reports
  in
  "Pass-list ablation: speedup over baseline per variant\n" ^ speedup_table
  ^ "\n\n\
     Per-pass reports, canonical CritIC pipeline (each stage's own \
     counters;\n\
     their field-wise sum equals the historical monolithic report)\n"
  ^ Util.Text_table.render
      ~header:(("app" :: "pass" :: field_names))
      report_rows
