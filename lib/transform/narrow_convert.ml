module I = Isa.Instr

(* Re-encode every chain member in the 16-bit format.  Convertibility
   was established per chain by Chain_select (or waived by
   [options.ideal], which uses the hypothetical encodings), so this is
   a pure per-instruction rewrite wherever a tag sits — position
   independent, hence equally correct before or after Hoist.

   Members already in Thumb16 are left untouched, which makes the pass
   idempotent on programs; they still count as converted, matching the
   monolithic report (which charged every member of a converted
   chain). *)
let apply (env : Pass.env) program =
  let converted = ref 0 in
  let program' =
    Prog.Program.update_blocks
      (Chains.rewrite_tagged (fun (ins : I.t) _ ->
           incr converted;
           if I.encoding ins = I.Thumb16 then ins
           else if env.Pass.options.ideal then I.force_thumb ins
           else I.with_encoding I.Thumb16 ins))
      env.Pass.blocks program
  in
  (program', { Report.zero with Report.instrs_converted = !converted })

let pass = { Pass.name = "narrow-convert"; apply }
