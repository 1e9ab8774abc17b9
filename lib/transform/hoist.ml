module I = Isa.Instr

let reg_mask regs =
  List.fold_left (fun acc r -> acc lor (1 lsl Isa.Reg.index r)) 0 regs

let mem_conflict (m : I.t) (s : I.t) =
  match (m.mem, s.mem) with
  | Some mm, Some sm ->
    (* Moving a load past a load is harmless; anything involving a
       store to the same region is not. *)
    let either_store =
      I.opcode m = Isa.Opcode.Store || I.opcode s = Isa.Opcode.Store
    in
    either_store && mm.region = sm.region
  | _ -> false

(* How many leading members of [idx] form a hoist-legal prefix.  A
   member moving up to the head passes every skipped instruction below
   it, whichever later members join, so the count stops at the first
   member that is out of range, out of order or in conflict.  The
   skipped instructions' registers are folded into masks as the scan
   climbs; only a memory member rescans the skipped gaps. *)
let legal_prefix (body : I.t array) idx =
  let n = Array.length body and k = Array.length idx in
  let read = ref 0 and written = ref 0 in
  let rec go j =
    let i = if j < k then idx.(j) else -1 in
    if i < 0 || i >= n || (j > 0 && i <= idx.(j - 1)) then j
    else begin
      for s = (if j > 0 then idx.(j - 1) + 1 else i) to i - 1 do
        read := !read lor reg_mask (I.regs_read body.(s));
        written := !written lor reg_mask (I.regs_written body.(s))
      done;
      let m = body.(i) in
      let mem_hit = ref false in
      if Option.is_some m.mem then
        for l = 1 to j do
          for s = idx.(l - 1) + 1 to idx.(l) - 1 do
            if mem_conflict m body.(s) then mem_hit := true
          done
        done;
      (* RAW, WAR, WAW, or a memory conflict *)
      if reg_mask (I.regs_read m) land !written <> 0
         || reg_mask (I.regs_written m) land (!read lor !written) <> 0
         || !mem_hit
      then j
      else go (j + 1)
    end
  in
  go 0

let legal (block : Prog.Block.t) indices =
  let idx = Array.of_list indices in
  Array.length idx >= 2 && legal_prefix block.body idx = Array.length idx

(* Write [src]'s [first, last] span into [dst] with the members of
   [idx] moved to the head's position in order and the rest of the span
   keeping its order behind them; nothing outside the span is
   written. *)
let hoist_into ~src ~dst idx =
  let k = Array.length idx in
  if k < 2 || legal_prefix src idx < k then
    invalid_arg "Hoist.apply: illegal or malformed hoist";
  let first = idx.(0) in
  Array.iteri (fun j i -> dst.(first + j) <- src.(i)) idx;
  let w = ref (first + k) and m = ref 0 in
  for p = first to idx.(k - 1) do
    if idx.(!m) = p then incr m
    else begin
      dst.(!w) <- src.(p);
      incr w
    end
  done

let apply (block : Prog.Block.t) indices =
  let body = Array.copy block.body in
  hoist_into ~src:block.body ~dst:body (Array.of_list indices);
  Prog.Block.with_body body block

(* The pass form: hoist every tagged chain.  Chain_select only accepts
   hoist-legal prefixes, so [hoist_into] cannot raise here.  Chains
   occupy disjoint spans and a hoist moves nothing outside its own, so
   every chain of a block is hoisted from the input body into one
   copy. *)
let pass =
  let run (env : Pass.env) program =
    let hoisted = ref 0 in
    let program' =
      Prog.Program.update_blocks
        (fun block ->
          match Chains.in_block block with
          | [] -> block
          | chains ->
            let src = block.Prog.Block.body in
            let dst = Array.copy src in
            List.iter
              (fun (c : Chains.t) ->
                hoisted := !hoisted + c.Chains.len;
                hoist_into ~src ~dst (Array.of_list c.Chains.positions))
              chains;
            Prog.Block.with_body dst block)
        env.Pass.blocks program
    in
    (program', { Report.zero with Report.instrs_hoisted = !hoisted })
  in
  { Pass.name = "hoist"; apply = run }
