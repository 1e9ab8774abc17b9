module Rng = Util.Rng
module I = Isa.Instr
module Op = Isa.Opcode

let reg = Isa.Reg.r

(* Register map (all within the Thumb-addressable range r0..r10):
   - r0..r4: chain-member destinations, cycled so every member of a
     chain writes a distinct register — a precondition for legal
     hoisting when gap links have their own consumers;
   - r5: the chain link register: every chain's tail writes it and (for
     [chain_linked] profiles) the next chain's root reads it;
   - r6: fanout-tree leaf scratch;
   - r7..r9: filler pool;
   - r10: loop-carried accumulator;
   - r11/r12: deliberately non-Thumb-addressable sabotage registers. *)
let chain_regs = [| reg 0; reg 1; reg 2; reg 3; reg 4 |]
let r_link = reg 5
let r_leaf = reg 6
let filler_pool = [| reg 7; reg 8; reg 9 |]
let r_acc = reg 10
let high_regs = [| reg 11; reg 12 |]

type ctx = {
  rng : Rng.t;
  p : Profile.t;
  mutable uid : int;
  (* filler registers currently holding a value, usable as sources *)
  mutable defined : Isa.Reg.t list;
  (* the signatures drawn so far: one shared [Some s] per (jitter,
     region) pair *)
  mem_sigs : I.mem_signature option array;
}

let fresh ctx =
  let u = ctx.uid in
  ctx.uid <- u + 1;
  u

let range rng (lo, hi) = if hi <= lo then lo else lo + Rng.int rng (hi - lo + 1)

(* A signature depends on the profile and two draws (jitter, then
   region), so a program needs at most [2 * p.regions] distinct ones. *)
let mem_signature ctx =
  let p = ctx.p in
  let jitter = 1 + Rng.int ctx.rng 2 in
  let region = Rng.int ctx.rng p.regions in
  let slot = ((jitter - 1) * p.regions) + region in
  match ctx.mem_sigs.(slot) with
  | Some _ as mem -> mem
  | None ->
    let mem =
      Some
        {
          I.region;
          stride = p.load_stride;
          working_set = max p.load_stride (p.load_working_set * jitter / 2);
          randomness = p.load_randomness;
        }
    in
    ctx.mem_sigs.(slot) <- mem;
    mem

let mk ctx ?dst ?(srcs = []) ?cond ?mem opcode =
  I.make ~uid:(fresh ctx) ~opcode ?dst ~srcs ?cond ?mem ()

(* Make an instruction non-Thumb-convertible, alternating between the
   two obstacles the paper cites: predication and high registers. *)
let sabotage ctx ?dst ?(srcs = []) opcode =
  if Rng.bool ctx.rng then mk ctx ?dst ~srcs ~cond:I.Ne opcode
  else
    let dst =
      match dst with Some _ -> Some (Rng.pick ctx.rng high_regs) | None -> None
    in
    mk ctx ?dst ~srcs opcode

let chain_member ctx ?dst ?(srcs = []) opcode =
  if Rng.chance ctx.rng ctx.p.chain_unconvertible_frac then
    sabotage ctx ?dst ~srcs opcode
  else mk ctx ?dst ~srcs opcode

(* Leaves write the shared scratch register; consecutive leaves only
   read their producer, so they add fanout there and nowhere else.
   A profile-controlled share of leaves are loads and stores consuming
   the produced value (the memory mix of the app), and another share is
   predicated or uses high registers — the Thumb-convertibility
   obstacles that bound how much of the stream OPP16/Compress can
   convert. *)
let leaf ctx src =
  let p = ctx.p in
  let roll = Rng.float ctx.rng 1.0 in
  if roll < p.leaf_load_frac then
    I.make ~uid:(fresh ctx) ~opcode:Op.Load ~dst:r_leaf ~srcs:[ src ]
      ?mem:(mem_signature ctx) ()
  else if roll < p.leaf_load_frac +. p.leaf_store_frac then
    I.make ~uid:(fresh ctx) ~opcode:Op.Store ~srcs:[ src ]
      ?mem:(mem_signature ctx) ()
  else begin
    let opcode = if Rng.chance ctx.rng p.fp_frac then Op.Fp_add else Op.Alu in
    if Rng.chance ctx.rng p.predicated_frac then
      mk ctx ~dst:r_leaf ~srcs:[ src ] ~cond:I.Ne opcode
    else if Rng.chance ctx.rng p.high_reg_frac then
      mk ctx ~dst:(Rng.pick ctx.rng high_regs) ~srcs:[ src ] opcode
    else mk ctx ~dst:r_leaf ~srcs:[ src ] opcode
  end

(* A critical chain group: high-fanout spine nodes linked through
   low-fanout gap instructions, each spine node feeding a burst of
   consumers (Sec. II-C structure). *)
let emit_chain ctx out =
  let p = ctx.p in
  let spine = max 1 (range ctx.rng p.spine_len) in
  let next_reg =
    let k = ref 0 in
    fun () ->
      let r = chain_regs.(!k mod Array.length chain_regs) in
      incr k;
      r
  in
  let cur = ref (next_reg ()) in
  let root_srcs = if p.chain_linked then [ r_link ] else [] in
  let root =
    if Rng.chance ctx.rng p.spine_load_frac then
      I.make ~uid:(fresh ctx) ~opcode:Op.Load ~dst:!cur ~srcs:root_srcs
        ?mem:(mem_signature ctx) ()
    else chain_member ctx ~dst:!cur ~srcs:root_srcs Op.Alu
  in
  out root;
  for s = 0 to spine - 1 do
    let last = s = spine - 1 in
    let f = max 2 (range ctx.rng p.fanout) in
    for _ = 1 to f - 1 do
      out (leaf ctx !cur)
    done;
    if not last then begin
      let g = range ctx.rng p.chain_gap in
      let prev = ref !cur in
      for _ = 1 to g do
        let r = next_reg () in
        out (chain_member ctx ~dst:r ~srcs:[ !prev ] Op.Alu);
        prev := r;
        (* gap links have a few consumers of their own: not enough to be
           individually critical, but they lift the chain average *)
        let gf = range ctx.rng p.gap_fanout in
        for _ = 1 to gf do
          out (leaf ctx r)
        done
      done;
      let next_is_tail = s + 1 = spine - 1 in
      let r = if next_is_tail then r_link else next_reg () in
      out (chain_member ctx ~dst:r ~srcs:[ !prev ] Op.Alu);
      cur := r
    end
  done

(* A SPEC-style isolated criticality group: one high-fanout root (a
   load) whose consumers are all low-fanout — no dependent critical
   instruction downstream. *)
let emit_isolated ctx out =
  let p = ctx.p in
  let f = max 2 (range ctx.rng p.isolated_fanout) in
  let root = chain_regs.(0) in
  out
    (I.make ~uid:(fresh ctx) ~opcode:Op.Load ~dst:root
       ?mem:(mem_signature ctx) ());
  for _ = 1 to f do
    out (leaf ctx root)
  done

let pick_defined ctx =
  match ctx.defined with
  | [] -> []
  | l -> [ List.nth l (Rng.int ctx.rng (List.length l)) ]

let emit_filler ctx out =
  let p = ctx.p in
  let roll = Rng.float ctx.rng 1.0 in
  let dst = Rng.pick ctx.rng filler_pool in
  let define r = if not (List.memq r ctx.defined) then ctx.defined <- r :: ctx.defined in
  let cum1 = p.load_frac in
  let cum2 = cum1 +. p.store_frac in
  let cum3 = cum2 +. p.mul_frac in
  let cum4 = cum3 +. p.div_frac in
  let cum5 = cum4 +. p.fp_frac in
  if roll < cum1 then begin
    out
      (I.make ~uid:(fresh ctx) ~opcode:Op.Load ~dst ~srcs:(pick_defined ctx)
         ?mem:(mem_signature ctx) ());
    define dst
  end
  else if roll < cum2 then
    match pick_defined ctx with
    | [] ->
      out (mk ctx ~dst Op.Alu);
      define dst
    | srcs ->
      out
        (I.make ~uid:(fresh ctx) ~opcode:Op.Store ~srcs
           ?mem:(mem_signature ctx) ())
  else if roll < cum3 then begin
    out (mk ctx ~dst ~srcs:(pick_defined ctx) Op.Mul);
    define dst
  end
  else if roll < cum4 then begin
    out (mk ctx ~dst ~srcs:(pick_defined ctx) Op.Div);
    define dst
  end
  else if roll < cum5 then begin
    let op = if Rng.bool ctx.rng then Op.Fp_add else Op.Fp_mul in
    out (mk ctx ~dst ~srcs:(pick_defined ctx) op);
    define dst
  end
  else begin
    (* plain ALU filler, possibly predicated or using high registers *)
    let srcs = pick_defined ctx in
    if Rng.chance ctx.rng p.predicated_frac then
      out (mk ctx ~dst ~srcs ~cond:I.Ne Op.Alu)
    else if Rng.chance ctx.rng p.high_reg_frac then
      out (mk ctx ~dst:(Rng.pick ctx.rng high_regs) ~srcs Op.Alu)
    else out (mk ctx ~dst ~srcs Op.Alu);
    define dst
  end

let gen_body ctx =
  let p = ctx.p in
  ctx.defined <- [];
  let instrs = ref [] in
  let count = ref 0 in
  let out i =
    instrs := i :: !instrs;
    incr count
  in
  let target = range ctx.rng p.body_instrs in
  let groups =
    List.init (range ctx.rng p.chain_groups) (fun _ () -> emit_chain ctx out)
    @ List.init (range ctx.rng p.isolated_groups) (fun _ () ->
          emit_isolated ctx out)
  in
  let ngroups = List.length groups in
  (* Interleave filler around the groups so critical chains sit at
     varying offsets in the block. *)
  let filler_budget () =
    let remaining = max 0 (target - !count) in
    if ngroups = 0 then remaining else remaining / (ngroups + 1)
  in
  List.iteri
    (fun gi group ->
      let n = if gi = 0 then filler_budget () else filler_budget () / 2 in
      for _ = 1 to n do
        emit_filler ctx out
      done;
      group ())
    groups;
  while !count < target do
    emit_filler ctx out
  done;
  if p.loop_carried then begin
    let extra = match pick_defined ctx with [] -> [] | l -> l in
    out (mk ctx ~dst:r_acc ~srcs:(r_acc :: extra) Op.Alu)
  end;
  Array.of_list (List.rev !instrs)

(* Small filler-only bodies for the dispatcher blocks. *)
let dispatcher_body ctx =
  ctx.defined <- [];
  let n = 3 + Rng.int ctx.rng 5 in
  let instrs = ref [] in
  for _ = 1 to n do
    emit_filler ctx (fun i -> instrs := i :: !instrs)
  done;
  Array.of_list (List.rev !instrs)

(* Terminators for ordinary functions (f >= 1).  Calls only target
   higher-numbered functions, making the call graph a DAG: the walk can
   never recurse unboundedly. *)
let gen_terminator ctx ~nfun ~fun_entry ~f ~size ~j ~id =
  let p = ctx.p in
  let next = id + 1 in
  if j = size - 1 then Prog.Block.Return
  else begin
    let roll = Rng.float ctx.rng 1.0 in
    if roll < p.call_prob && f < nfun - 1 then begin
      let callee =
        if Rng.chance ctx.rng p.call_locality then
          min (nfun - 1) (f + 1 + Rng.int ctx.rng 8)
        else f + 1 + Rng.int ctx.rng (nfun - 1 - f)
      in
      Prog.Block.Call { callee = fun_entry.(callee); return_to = next }
    end
    else if roll < p.call_prob +. p.branch_prob then begin
      if Rng.chance ctx.rng p.loop_prob && j > 0 then begin
        (* backward loop edge *)
        let back = max 0 (j - 1 - Rng.int ctx.rng (min 3 j)) in
        let bias = 1.0 -. (1.0 /. float_of_int p.loop_iterations) in
        Prog.Block.Cond_branch
          { taken = fun_entry.(f) + back; not_taken = next; taken_bias = bias }
      end
      else if j + 2 <= size - 1 then begin
        (* forward skip *)
        let fwd = j + 2 + Rng.int ctx.rng (size - 1 - (j + 1)) in
        let fwd = min fwd (size - 1) in
        let lo, hi = p.branch_bias in
        let bias = lo +. Rng.float ctx.rng (max 0.0 (hi -. lo)) in
        Prog.Block.Cond_branch
          { taken = fun_entry.(f) + fwd; not_taken = next; taken_bias = bias }
      end
      else Prog.Block.Fallthrough next
    end
    else Prog.Block.Fallthrough next
  end

(* The dispatcher (function 0) models the app main loop: [slots] handler
   call-sites, each guarded by a coin-flip gate so every iteration runs
   a different random subset of handlers, dispersing execution over the
   whole code base.  Layout: gate g_i = block 2i, call c_i = block 2i+1,
   closing block 2*slots jumps back to the start. *)
let dispatcher_blocks ctx ~nfun ~fun_entry =
  let p = ctx.p in
  let slots = p.dispatcher_slots in
  let handler i =
    if nfun <= 1 then 0
    else begin
      let spread = 1 + (i * (nfun - 1) / slots) in
      let jitter = Rng.int ctx.rng (max 1 ((nfun - 1) / slots)) in
      min (nfun - 1) (spread + jitter)
    end
  in
  let blocks = ref [] in
  for i = 0 to slots - 1 do
    let gate_id = 2 * i in
    let call_id = (2 * i) + 1 in
    let next_gate = 2 * (i + 1) in
    blocks :=
      Prog.Block.make ~id:gate_id ~func:0 ~body:(dispatcher_body ctx)
        ~term:
          (Prog.Block.Cond_branch
             { taken = next_gate; not_taken = call_id; taken_bias = 0.72 })
      :: !blocks;
    let term =
      if nfun <= 1 then Prog.Block.Fallthrough next_gate
      else
        Prog.Block.Call
          { callee = fun_entry.(handler i); return_to = next_gate }
    in
    blocks :=
      Prog.Block.make ~id:call_id ~func:0 ~body:(dispatcher_body ctx) ~term
      :: !blocks
  done;
  blocks :=
    Prog.Block.make ~id:(2 * slots) ~func:0 ~body:(dispatcher_body ctx)
      ~term:(Prog.Block.Jump 0)
    :: !blocks;
  List.rev !blocks

let program p =
  Profile.validate p;
  let ctx =
    {
      rng = Rng.create p.seed;
      p;
      uid = 0;
      defined = [];
      mem_sigs = Array.make (2 * p.regions) None;
    }
  in
  let nfun = p.functions in
  let sizes =
    Array.init nfun (fun f ->
        if f = 0 then (2 * p.dispatcher_slots) + 1
        else max 1 (range ctx.rng p.blocks_per_function))
  in
  let fun_entry = Array.make nfun 0 in
  let total = ref 0 in
  Array.iteri
    (fun f size ->
      fun_entry.(f) <- !total;
      total := !total + size)
    sizes;
  let blocks = ref (List.rev (dispatcher_blocks ctx ~nfun ~fun_entry)) in
  for f = 1 to nfun - 1 do
    let size = sizes.(f) in
    for j = 0 to size - 1 do
      let id = fun_entry.(f) + j in
      let body = gen_body ctx in
      let term = gen_terminator ctx ~nfun ~fun_entry ~f ~size ~j ~id in
      blocks := Prog.Block.make ~id ~func:f ~body ~term :: !blocks
    done
  done;
  Prog.Program.make ~entry:0 ~blocks:(List.rev !blocks)
