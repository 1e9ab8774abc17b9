(** Experiment registry: every table and figure of the paper, plus the
    reproduction's own ablations.  Each module exposes [run] (structured
    result) and [render]; [run_all] regenerates everything from one
    shared harness, which is what [bench/main.exe] prints. *)

module Harness = Harness
module Fig01 = Fig01
module Fig03 = Fig03
module Fig05 = Fig05
module Fig08 = Fig08
module Fig10 = Fig10
module Fig11 = Fig11
module Fig12 = Fig12
module Fig13 = Fig13
module Worked_example = Worked_example
module Tables = Tables
module Macro_study = Macro_study
module Ablations = Ablations
module Nanopass_study = Nanopass_study
module Policy_lab = Policy_lab

type entry = {
  id : string;
  title : string;
  render : Harness.t -> string;
  jobs : unit -> Harness.job list;
      (* the memoized simulations the entry draws on, for parallel
         prewarming via Harness.run_batch *)
}

let no_jobs () = []

let mobile () = List.assoc "Mobile" Harness.suites
let everyone () = List.concat_map snd Harness.suites

let scheme_jobs apps schemes () =
  List.concat_map
    (fun app -> List.map (fun s -> Harness.job app s) schemes)
    (apps ())

let context_jobs apps () = List.map Harness.context_job (apps ())

let all : entry list =
  [
    { id = "tab1"; title = "Table I: configuration";
      render = (fun _ -> Tables.table_i ()); jobs = no_jobs };
    { id = "tab2"; title = "Table II: applications";
      render = (fun _ -> Tables.table_ii ()); jobs = no_jobs };
    { id = "fig1"; title = "Fig 1: motivation";
      render = (fun h -> Fig01.render (Fig01.run h)); jobs = Fig01.jobs };
    { id = "fig2"; title = "Fig 2/4: worked scheduling example";
      render = (fun _ -> Worked_example.render (Worked_example.example ()));
      jobs = no_jobs };
    { id = "fig3"; title = "Fig 3: stage breakdown";
      render = (fun h -> Fig03.render (Fig03.run h));
      jobs = scheme_jobs everyone [ Critics.Scheme.Baseline ] };
    { id = "fig5"; title = "Fig 5: IC shapes and coverage";
      render = (fun h -> Fig05.render (Fig05.run h));
      jobs = context_jobs everyone };
    { id = "fig8"; title = "Fig 8: Approach 1 on stock hardware";
      render = (fun h -> Fig08.render (Fig08.run h));
      jobs =
        scheme_jobs mobile
          [ Critics.Scheme.Baseline; Critics.Scheme.Critic_branches;
            Critics.Scheme.Critic ] };
    { id = "fig10"; title = "Fig 10: speedup and energy";
      render = (fun h -> Fig10.render (Fig10.run h));
      jobs =
        scheme_jobs mobile
          [ Critics.Scheme.Baseline; Critics.Scheme.Hoist;
            Critics.Scheme.Critic; Critics.Scheme.Critic_ideal ] };
    { id = "fig11"; title = "Fig 11: hardware mechanisms";
      render = (fun h -> Fig11.render (Fig11.run h)); jobs = Fig11.jobs };
    { id = "fig12"; title = "Fig 12: sensitivity";
      render = (fun h -> Fig12.render (Fig12.run h));
      jobs = scheme_jobs mobile [ Critics.Scheme.Baseline ] };
    { id = "fig13"; title = "Fig 13: criticality-agnostic conversion";
      render = (fun h -> Fig13.render (Fig13.run h));
      jobs =
        scheme_jobs mobile
          [ Critics.Scheme.Baseline; Critics.Scheme.Opp16;
            Critics.Scheme.Compress; Critics.Scheme.Critic;
            Critics.Scheme.Opp16_critic ] };
    { id = "macro"; title = "Extension: macro-ISA upper bound";
      render = (fun h -> Macro_study.render (Macro_study.run h));
      jobs =
        scheme_jobs mobile
          [ Critics.Scheme.Baseline; Critics.Scheme.Critic;
            Critics.Scheme.Macro_ideal ] };
    { id = "ablations"; title = "Reproduction ablations";
      render = (fun h -> Ablations.render (Ablations.run h));
      jobs = Ablations.jobs };
  ]

(* Opt-in artifacts beyond the paper's figure set.  Kept out of [all]
   so the default bench stdout stays byte-identical; reachable via
   [find], `critics experiment <id>` and `bench --ablation`, which
   appends all of them after [all]. *)
let extra : entry list =
  [
    { id = "nanopass"; title = "Pass-list ablations (nanopass pipeline)";
      render = (fun h -> Nanopass_study.render (Nanopass_study.run h));
      jobs = Nanopass_study.jobs };
    { id = "policy-lab";
      title = "Front-end policy laboratory (replacement x i-prefetch)";
      render = (fun h -> Policy_lab.render (Policy_lab.run h));
      jobs = (fun () -> Policy_lab.jobs ()) };
  ]

let find id = List.find_opt (fun e -> e.id = id) (all @ extra)

let prewarm ?only h =
  let entries =
    match only with
    | None -> all
    | Some e -> [ e ]
  in
  Harness.run_batch h (List.concat_map (fun e -> e.jobs ()) entries)

let run_all ?(out = print_string) h =
  prewarm h;
  List.iter
    (fun e ->
      out (Printf.sprintf "\n===== %s — %s =====\n" e.id e.title);
      out (e.render h);
      out "\n")
    all
