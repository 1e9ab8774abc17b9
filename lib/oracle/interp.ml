(* Golden reference model: a simple, functional, one-instruction-per-
   step architectural interpreter over [Prog.Program].

   It shares nothing with the cycle simulator: no pipeline, no caches,
   no queues — every dynamic instruction executes in one step, in
   program order, against an architectural register file and a flat
   memory.  Since the ISA carries no immediates or concrete semantics,
   the interpreter assigns each instruction a *canonical* deterministic
   semantics (SplitMix64 value mixing over the source operands, keyed by
   opcode and predication).  Any two programs that compute the same
   dataflow produce the same values; any pass that breaks a dependence,
   reorders conflicting memory operations, or drops an instruction
   produces a diverging commit log.

   The dynamic memory address stream is re-derived here from the
   instruction's [mem_signature] following the same published rule as
   [Prog.Trace] ((seed, uid, access-count)-keyed one-shot generators);
   the differential harness cross-checks the two implementations against
   each other. *)

module I = Isa.Instr
module Op = Isa.Opcode
module L = Commit_log

type result = {
  log : Commit_log.t;
  path : Prog.Walk.path;
  work_instrs : int;
}

(* --------------------- canonical value semantics ------------------- *)

let opcode_index op =
  let rec idx i = function
    | [] -> invalid_arg "Interp.opcode_index"
    | o :: rest -> if Op.equal o op then i else idx (i + 1) rest
  in
  idx 0 Op.all

let cond_index = function
  | I.Always -> 0
  | I.Eq -> 1
  | I.Ne -> 2
  | I.Gt -> 3
  | I.Lt -> 4
  | I.Ge -> 5
  | I.Le -> 6

let opcode_salt (ins : I.t) =
  L.mix_int (L.mix_int 0x0CA11L (opcode_index (I.opcode ins)))
    (cond_index (I.cond ins))

let initial_reg i = L.mix64 (Int64.of_int (0x5EED_0000 + i))
let fresh_mem_value addr = L.mix64 (Int64.of_int (addr lxor 0x4D45_4D00))

(* ------------------- dynamic memory address spec ------------------- *)

(* Mirrors the published address-stream rule of Prog.Trace.mem_address:
   each (seed, uid, count) triple keys a one-shot generator, so the
   stream of any one static instruction is independent of instruction
   order.  Kept as an independent implementation on purpose — the
   differential harness diffs the two. *)
let mem_address ~seed ~uid ~count (m : I.mem_signature) =
  let data_base = 0x4000_0000 and region_span = 0x0100_0000 in
  let base = data_base + (m.region * region_span) in
  let ws = max m.stride m.working_set in
  let slots = max 1 (ws / max 1 m.stride) in
  let rng =
    Util.Rng.create
      ((seed * 0x9E3779B1) lxor (uid * 0x85EBCA77) lxor (count * 0xC2B2AE3D))
  in
  let slot =
    if m.randomness > 0.0 && Util.Rng.chance rng m.randomness then
      Util.Rng.int rng slots
    else count mod slots
  in
  base + (slot * m.stride)

(* ----------------------------- machine ----------------------------- *)

type machine = {
  seed : int;
  regs : int64 array;
  mem : (int, int64) Hashtbl.t;
  counts : (int, int) Hashtbl.t; (* per-uid dynamic access count *)
  mutable seq : int;
  mutable work : int;
  mutable entries_rev : L.entry list;
  mutable block_digests_rev : int64 list;
  (* commutative digest of the stores of the current block instance *)
  mutable store_acc : int64;
}

let create_machine seed =
  {
    seed;
    regs = Array.init Isa.Reg.count initial_reg;
    mem = Hashtbl.create 4096;
    counts = Hashtbl.create 1024;
    seq = 0;
    work = 0;
    entries_rev = [];
    block_digests_rev = [];
    store_acc = 0L;
  }

let next_count m uid =
  let c = Option.value ~default:0 (Hashtbl.find_opt m.counts uid) in
  Hashtbl.replace m.counts uid (c + 1);
  c

let read_reg m r = m.regs.(Isa.Reg.index r)

let read_mem m addr =
  match Hashtbl.find_opt m.mem addr with
  | Some v -> v
  | None -> fresh_mem_value addr

let emit m ~uid ~pc ~block_id ~opcode effects =
  let e = { L.seq = m.seq; uid; pc; block_id; opcode; effects } in
  m.seq <- m.seq + 1;
  m.entries_rev <- e :: m.entries_rev

let combine_srcs salt vals = List.fold_left L.mix2 salt vals

(* Execute one body instruction; returns its size in bytes. *)
let exec_instr m ~block_id ~pc (ins : I.t) =
  let opcode = I.opcode ins in
  let is_work = opcode <> Op.Cdp_switch && not (Op.is_control opcode) in
  if is_work then m.work <- m.work + 1;
  (match opcode with
  | Op.Cdp_switch ->
    (* Format-switch marker: decoder metadata, no architectural effect. *)
    emit m ~uid:ins.uid ~pc ~block_id ~opcode []
  | Op.Branch | Op.Call | Op.Return ->
    (* Body control (Approach-1 switch branches): unconditional,
       always taken, no dataflow. *)
    emit m ~uid:ins.uid ~pc ~block_id ~opcode
      [ L.Branch_out { taken = true } ]
  | Op.Load when ins.mem <> None ->
    let msig = Option.get ins.mem in
    let addr =
      mem_address ~seed:m.seed ~uid:ins.uid ~count:(next_count m ins.uid) msig
    in
    let value = read_mem m addr in
    let effects =
      L.Mem_read { addr; value }
      ::
      (match I.dst ins with
      | None -> []
      | Some d ->
        m.regs.(Isa.Reg.index d) <- value;
        [ L.Reg_write { reg = Isa.Reg.index d; value } ])
    in
    emit m ~uid:ins.uid ~pc ~block_id ~opcode effects
  | Op.Store when ins.mem <> None ->
    let msig = Option.get ins.mem in
    let addr =
      mem_address ~seed:m.seed ~uid:ins.uid ~count:(next_count m ins.uid) msig
    in
    (* A store's data operand is its [dst] register (see
       Instr.regs_read); the address registers contribute too, so any
       dependence breakage upstream changes the stored value. *)
    let value =
      combine_srcs (opcode_salt ins) (List.map (read_reg m) (I.regs_read ins))
    in
    Hashtbl.replace m.mem addr value;
    m.store_acc <-
      Int64.logxor m.store_acc (L.mix2 (Int64.of_int addr) value);
    emit m ~uid:ins.uid ~pc ~block_id ~opcode
      [ L.Mem_write { addr; value } ]
  | _ ->
    (* Generic compute (including a Load/Store without a memory
       signature, which the timing model also treats as plain work). *)
    let value =
      combine_srcs (opcode_salt ins) (List.map (read_reg m) (I.regs_read ins))
    in
    let effects =
      match I.regs_written ins with
      | [] -> []
      | writes ->
        List.map
          (fun d ->
            m.regs.(Isa.Reg.index d) <- value;
            L.Reg_write { reg = Isa.Reg.index d; value })
          writes
    in
    emit m ~uid:ins.uid ~pc ~block_id ~opcode effects);
  I.size_bytes ins

let terminator_opcode = function
  | Prog.Block.Fallthrough _ -> None
  | Prog.Block.Cond_branch _ | Prog.Block.Jump _ -> Some Op.Branch
  | Prog.Block.Call _ -> Some Op.Call
  | Prog.Block.Return -> Some Op.Return

let regfile_digest m = Array.fold_left L.mix2 7L m.regs

let term_code = function
  | Prog.Block.Fallthrough _ -> 0
  | Prog.Block.Cond_branch _ -> 1
  | Prog.Block.Jump _ -> 2
  | Prog.Block.Call _ -> 3
  | Prog.Block.Return -> 4

(* Execute one block instance.  [taken] is the control decision leaving
   it (meaningful for conditional terminators; mirrors the trace rule
   that only a transfer matching the next path block counts as taken). *)
let exec_block m program block_id ~taken =
  let b = Prog.Program.block program block_id in
  let pc = ref (Prog.Program.block_addr program block_id) in
  m.store_acc <- 0L;
  Array.iter
    (fun ins -> pc := !pc + exec_instr m ~block_id ~pc:!pc ins)
    b.Prog.Block.body;
  (match terminator_opcode b.Prog.Block.term with
  | None -> ()
  | Some opcode ->
    (* Synthetic terminators count as work (Trace.is_work: their uid is
       above control_uid_base), unlike body control markers. *)
    m.work <- m.work + 1;
    emit m ~uid:(Prog.Trace.control_uid_base + block_id) ~pc:!pc ~block_id
      ~opcode
      [ L.Branch_out { taken } ]);
  let bd =
    L.mix2
      (L.mix_int
         (L.mix_int 2L block_id)
         ((2 * term_code b.Prog.Block.term) + if taken then 1 else 0))
      (L.mix2 m.store_acc (regfile_digest m))
  in
  m.block_digests_rev <- bd :: m.block_digests_rev

let finish m path =
  let entries = Array.of_list (List.rev m.entries_rev) in
  let block_digests = Array.of_list (List.rev m.block_digests_rev) in
  {
    log =
      Commit_log.make ~entries ~block_digests ~final_regs:(Array.copy m.regs);
    path;
    work_instrs = m.work;
  }

(* ----------------------------- drivers ----------------------------- *)

let run_path program ~seed path =
  let m = create_machine seed in
  let npath = Array.length path in
  Array.iteri
    (fun visit block_id ->
      let b = Prog.Program.block program block_id in
      let taken =
        match b.Prog.Block.term with
        | Prog.Block.Fallthrough _ -> false
        | Prog.Block.Jump _ | Prog.Block.Call _ | Prog.Block.Return -> true
        | Prog.Block.Cond_branch { taken; _ } ->
          visit + 1 < npath && path.(visit + 1) = taken
      in
      exec_block m program block_id ~taken)
    path;
  finish m path

let run program ~seed ~instrs =
  (* Independent re-implementation of the Prog.Walk sampling rule: one
     Rng draw per conditional branch, visits counted before stepping,
     calls push their return block, a return with an empty stack restarts
     at the entry.  The differential harness checks the resulting path
     against Prog.Walk's. *)
  let m = create_machine seed in
  let rng = Util.Rng.create seed in
  let stack = ref [] in
  let cur = ref (Prog.Program.entry program) in
  let executed = ref 0 in
  let path_rev = ref [] in
  while !executed < instrs do
    let block_id = !cur in
    let b = Prog.Program.block program block_id in
    path_rev := block_id :: !path_rev;
    executed := !executed + Array.length b.Prog.Block.body;
    let next =
      match b.Prog.Block.term with
      | Prog.Block.Fallthrough n | Prog.Block.Jump n -> n
      | Prog.Block.Cond_branch { taken; not_taken; taken_bias } ->
        if Util.Rng.chance rng taken_bias then taken else not_taken
      | Prog.Block.Call { callee; return_to } ->
        stack := return_to :: !stack;
        callee
      | Prog.Block.Return -> (
        match !stack with
        | r :: rest ->
          stack := rest;
          r
        | [] -> Prog.Program.entry program)
    in
    let continues = !executed < instrs in
    let taken =
      match b.Prog.Block.term with
      | Prog.Block.Fallthrough _ -> false
      | Prog.Block.Jump _ | Prog.Block.Call _ | Prog.Block.Return -> true
      | Prog.Block.Cond_branch { taken; _ } -> continues && next = taken
    in
    exec_block m program block_id ~taken;
    cur := next
  done;
  finish m (Array.of_list (List.rev !path_rev))
