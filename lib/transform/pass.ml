type switch_mode = Cdp | Branches | Hoist_only | Fused_macro

type options = { max_len : int; mode : switch_mode; ideal : bool }

let default_options = { max_len = 5; mode = Cdp; ideal = false }
let ideal_options = { max_len = max_int; mode = Cdp; ideal = true }

type env = { db : Profiler.Critic_db.t; options : options; blocks : int array }

let env ?(options = default_options) db =
  let db =
    if options.ideal then db
    else Profiler.Critic_db.restrict_length options.max_len db
  in
  let blocks =
    List.map (fun (s : Profiler.Critic_db.site) -> s.block_id) db.sites
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  { db; options; blocks }

type t = {
  name : string;
  apply : env -> Prog.Program.t -> Prog.Program.t * Report.t;
}

let fresh_uids program =
  let next = ref (Prog.Program.max_uid program + 1) in
  fun () ->
    let u = !next in
    incr next;
    u
