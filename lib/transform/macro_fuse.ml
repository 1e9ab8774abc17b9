module I = Isa.Instr

(* The rejected ISA-extension alternative: each chain becomes one
   hypothetical macro-instruction.  The head (tag position 0) keeps its
   32-bit slot — the macro opcode word — and every other member rides
   for free as a fused slice. *)
let apply (env : Pass.env) program =
  let nconv = ref 0 in
  let program' =
    Prog.Program.update_blocks
      (Chains.rewrite_tagged (fun ins (tag : I.chain_tag) ->
           incr nconv;
           if tag.I.pos = 0 then ins else I.fuse ins))
      env.Pass.blocks program
  in
  (program', { Report.zero with Report.instrs_converted = !nconv })

let pass = { Pass.name = "macro-fuse"; apply }
