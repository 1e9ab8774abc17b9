module Db = Profiler.Critic_db

type switch_mode = Pass.switch_mode = Cdp | Branches | Hoist_only | Fused_macro

type options = Pass.options = {
  max_len : int;
  mode : switch_mode;
  ideal : bool;
}

let default_options = Pass.default_options
let ideal_options = Pass.ideal_options

type report = Report.t = {
  sites_considered : int;
  sites_applied : int;
  rejected_stale : int;
  rejected_legality : int;
  rejected_convertibility : int;
  instrs_hoisted : int;
  instrs_converted : int;
  cdp_inserted : int;
  switch_branches_inserted : int;
}

let apply ?(options = default_options) (db : Db.t) program =
  Pipeline.run_exn (Pass.env ~options db) (Pipeline.canonical options) program
