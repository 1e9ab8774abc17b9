module I = Isa.Instr

let span = 9

(* Insert one CDP marker per group of up to [span] consecutive chain
   members, the marker announcing the group that follows it.

   Fresh uids are part of the bit-identicality contract: the monolithic
   pass drew them from a single counter starting at [max_uid + 1],
   walking blocks in ascending id order and sites within a block in
   descending start-index order, groups ascending within a site.  The
   earlier passes create no instructions, so [max_uid] here equals the
   original program's, and Chains.mark_runs reproduces the site order.
   Grouping by chain id (not by scanning for tagged runs) keeps
   adjacent chains from sharing a marker window. *)
let apply (env : Pass.env) program =
  let fresh_uid = Pass.fresh_uids program in
  let ncdp = ref 0 in
  let markers run =
    List.map
      (fun group ->
        incr ncdp;
        (List.hd group, I.cdp ~uid:(fresh_uid ()) ~following:(List.length group)))
      (Chains.chunk span run)
  in
  let program' =
    Prog.Program.update_blocks (Chains.mark_runs markers) env.Pass.blocks program
  in
  (program', { Report.zero with Report.cdp_inserted = !ncdp })

let pass = { Pass.name = "cdp-insert"; apply }
