module I = Isa.Instr

(* Approach 1's stock-hardware switch: an always-taken 32-bit branch
   into the 16-bit region and a 16-bit branch back.  Fresh uids follow
   the same contract as Cdp_insert — blocks ascending, chains
   descending, and within a chain the entry branch drawn before the
   exit branch. *)
let apply (env : Pass.env) program =
  let fresh_uid = Pass.fresh_uids program in
  let nbr = ref 0 in
  let switches run =
    let pre = I.make ~uid:(fresh_uid ()) ~opcode:Isa.Opcode.Branch () in
    let post =
      I.make ~uid:(fresh_uid ()) ~opcode:Isa.Opcode.Branch ~encoding:I.Thumb16 ()
    in
    nbr := !nbr + 2;
    [ (List.hd run, pre); (List.nth run (List.length run - 1) + 1, post) ]
  in
  let program' =
    Prog.Program.update_blocks (Chains.mark_runs switches) env.Pass.blocks
      program
  in
  (program', { Report.zero with Report.switch_branches_inserted = !nbr })

let pass = { Pass.name = "branch-switch"; apply }
