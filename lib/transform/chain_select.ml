module I = Isa.Instr
module Db = Profiler.Critic_db

(* Selection reproduces the monolithic pass's decision procedure
   exactly, but instead of rewriting it only *marks*: accepted prefix
   members get a chain tag at their original position, and every later
   pass finds its work through the tags.

   Checks run against the block as profiled (sites are index-range
   disjoint within a block, so the monolithic pass's
   descending-start-index fold saw exactly this body at every site it
   checked).  [floor] covers the non-disjoint corner: positions at or
   above an already-accepted site's first member would have been
   rewritten by the time the monolithic pass revisited them, so a later
   site touching them is stale here too.  A member/uid length mismatch
   — possible in an externally loaded database — likewise counts as
   stale instead of raising, the first failing check being
   re-validation. *)

(* What one site adds to the report: it is considered, then applied or
   charged to its first failing check. *)
let considered = { Report.zero with Report.sites_considered = 1 }
let stale = { considered with Report.rejected_stale = 1 }
let illegal = { considered with Report.rejected_legality = 1 }
let unconvertible = { considered with Report.rejected_convertibility = 1 }
let applied = { considered with Report.sites_applied = 1 }

let select_block (env : Pass.env) count chain_counter (block : Prog.Block.t)
    sites =
  let sorted =
    List.sort (fun (a : Db.site) b -> compare b.start_index a.start_index) sites
  in
  let body = Array.copy block.Prog.Block.body in
  let floor = ref max_int in
  let needs_conversion =
    match env.Pass.options.mode with
    | Pass.Cdp | Pass.Branches -> not env.Pass.options.ideal
    | Pass.Hoist_only | Pass.Fused_macro -> false
  in
  List.iter
    (fun (site : Db.site) ->
      let fresh_site_ok =
        List.length site.member_indices = List.length site.uids
        && List.for_all2
             (fun idx uid ->
               idx >= 0
               && idx < Array.length body
               && idx < !floor
               && body.(idx).I.uid = uid)
             site.member_indices site.uids
      in
      if not fresh_site_ok then count stale
      else begin
        (* Longest legal prefix: any prefix of an IC is an IC, so when
           the full chain cannot be hoisted (e.g. a register is reused
           further down) we fall back to the longest hoistable prefix. *)
        let idx = Array.of_list site.member_indices in
        let len = Hoist.legal_prefix body idx in
        let convertible () =
          let ok = ref true in
          for pos = 0 to len - 1 do
            if not (Isa.Instr.thumb_convertible body.(idx.(pos))) then
              ok := false
          done;
          !ok
        in
        if len < 2 then count illegal
        else if needs_conversion && not (convertible ()) then
          (* All-or-nothing: the whole sequence stays untouched. *)
          count unconvertible
        else begin
          let chain_id = !chain_counter in
          incr chain_counter;
          for pos = 0 to len - 1 do
            body.(idx.(pos)) <-
              I.with_chain (Some { I.chain_id; pos; len }) body.(idx.(pos))
          done;
          floor := idx.(0);
          count applied
        end
      end)
    sorted;
  if !floor = max_int then block else Prog.Block.with_body body block

let apply (env : Pass.env) program =
  let by_block : (int, Db.site list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (s : Db.site) ->
      if Db.site_length s >= 2 then
        Hashtbl.replace by_block s.block_id
          (s :: Option.value ~default:[] (Hashtbl.find_opt by_block s.block_id)))
    env.Pass.db.Db.sites;
  let chain_counter = ref 0 in
  let r = ref Report.zero in
  let count site = r := Report.add !r site in
  let program' =
    Prog.Program.update_blocks
      (fun block ->
        match Hashtbl.find_opt by_block block.Prog.Block.id with
        | None -> block
        | Some sites -> select_block env count chain_counter block sites)
      env.Pass.blocks program
  in
  (program', !r)

let pass = { Pass.name = "chain-select"; apply }
