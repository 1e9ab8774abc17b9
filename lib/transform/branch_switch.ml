module I = Isa.Instr

(* Approach 1's stock-hardware switch: an always-taken 32-bit branch
   into the 16-bit region and a 16-bit branch back.  Fresh uids follow
   the same contract as Cdp_insert — blocks ascending, chains
   descending, and within a chain the entry branch drawn before the
   exit branch. *)
let apply (_ : Pass.env) program =
  let fresh_uid = Pass.fresh_uids program in
  let nbr = ref 0 in
  let program' =
    Prog.Program.map_blocks
      (fun block ->
        match Chains.in_block block with
        | [] -> block
        | chains ->
          let body = ref block.Prog.Block.body in
          List.iter
            (fun (c : Chains.t) ->
              let inserts =
                List.concat_map
                  (fun run ->
                    let first = List.hd run in
                    let last = List.nth run (List.length run - 1) in
                    let pre =
                      I.make ~uid:(fresh_uid ()) ~opcode:Isa.Opcode.Branch ()
                    in
                    let post =
                      I.make ~uid:(fresh_uid ()) ~opcode:Isa.Opcode.Branch
                        ~encoding:I.Thumb16 ()
                    in
                    [ (first, pre); (last + 1, post) ])
                  (Chains.runs c)
              in
              nbr := !nbr + List.length inserts;
              body := Chains.splice !body inserts)
            (Chains.descending chains);
          Prog.Block.with_body !body block)
      program
  in
  (program', { Report.zero with Report.switch_branches_inserted = !nbr })

let pass = { Pass.name = "branch-switch"; apply }
