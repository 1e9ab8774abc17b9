type commit = {
  commit_seq : int;   (* position in the ROB retirement stream *)
  commit_cycle : int;
  event : Prog.Trace.event;
}

(* PC-indexed criticality predictor, direct-mapped by [(pc lsr 1) land
   mask].  It lives in this compilation unit because [train] runs on
   every retirement: a call into another module is never inlined when
   modules are compiled [-opaque] (dune's dev profile), and with more
   than one argument it also goes through [caml_applyN]. *)
module Criticality_table = struct
  type t = {
    confidence : int array; (* 2-bit counters; predict critical when >= 2 *)
    tags : int array;
    mask : int;             (* entries - 1 *)
    threshold : int;
  }

  let create ?(entries = 4096) ~threshold () =
    if entries <= 0 || entries land (entries - 1) <> 0 then
      invalid_arg "Criticality_table.create: entries must be a power of two";
    {
      confidence = Array.make entries 0;
      tags = Array.make entries (-1);
      mask = entries - 1;
      threshold;
    }

  let[@inline] predict t ~pc =
    let i = (pc lsr 1) land t.mask in
    t.tags.(i) = pc && t.confidence.(i) >= 2

  let[@inline] train t ~pc ~fanout =
    let i = (pc lsr 1) land t.mask in
    if t.tags.(i) <> pc then begin
      t.tags.(i) <- pc;
      t.confidence.(i) <- (if fanout >= t.threshold then 2 else 0)
    end
    else if fanout >= t.threshold then begin
      (* int-specialized saturation *)
      let c = t.confidence.(i) in
      t.confidence.(i) <- (if c >= 3 then 3 else c + 1)
    end
    else begin
      let c = t.confidence.(i) in
      t.confidence.(i) <- (if c <= 0 then 0 else c - 1)
    end
end

(* A slot is the simulator's in-flight record for one dynamic
   instruction.  Slots live in a fixed ring sized by the in-flight
   window of the modeled core (fetch queue + decode queue + ROB): a
   record is (re)initialized when the fetch engine first reaches its
   event and recycled — in place, keeping its grown [dependents]
   array — once a younger instruction wraps around the ring, which can
   only happen after the occupant has retired.  [idx] is the global
   stream position.  Everything that refers to an in-flight
   instruction (the stage queues, the ready list, the wheels, the
   rename table, the fetch head, the pending mispredict) holds its
   stream index [i], never the record: the record is [ring.(i land
   mask)], and it still holds that instruction iff its [idx] is [i] —
   otherwise the slot has moved on, which implies the instruction
   retired.  Int fields only, so no per-event store pays a write
   barrier.

   A slot holds no event record: the fetch engine copies the fields it
   needs out of the stream's columns when it pulls the event, and
   decodes what the stages read from the static instruction into int
   fields once ({!decode}).  [instr], [seq], [body_index] and [func]
   are written only when an [on_commit] observer or a probe will read
   them. *)
(* Functional-unit pool, from [Isa.Opcode.unit_kind]; [Div] is split
   out of the multiplier pool because it also blocks the divider. *)
type unit_class =
  | Alu_unit
  | Mul_unit
  | Div_unit
  | Mem_unit
  | Fp_unit
  | Branch_unit
  | No_unit

type slot = {
  mutable idx : int;           (* global position in the event stream *)
  mutable pc : int;
  mutable size : int;
  mutable mem_addr : int;
  mutable next_pc : int;
  mutable flags : int;         (* Prog.Trace.Stream.flag_* lor f_thumb,
                                  f_chain, f_work *)
  mutable block_id : int;
  mutable opcode : Isa.Opcode.t;
  mutable uid : int;
  mutable unit_class : unit_class;
  mutable latency : int;       (* Isa.Opcode.exec_latency *)
  mutable dst : int;           (* register renamed to this slot; -1 none *)
  mutable reads : int;         (* bit r set: reads register r *)
  mutable instr : Isa.Instr.t;
  mutable seq : int;
  mutable body_index : int;
  mutable func : int;
  mutable fetch_request : int; (* cycle the fetch engine first reached it *)
  mutable stall_i : int;       (* supply-side stall cycles while fetch head *)
  mutable stall_bp : int;      (* backpressure stall cycles while fetch head *)
  mutable fetched : int;
  mutable decoded : int;
  mutable renamed : int;
  mutable issued : int;
  mutable completed : int;
  mutable committed : int;
  mutable waiting_on : int;    (* unresolved producers *)
  mutable ready_time : int;    (* earliest issue cycle *)
  mutable dependents : int array; (* global stream indices; grown geometrically *)
  mutable ndeps : int;
  mutable fanout : int;        (* consumers renamed before our commit *)
  mutable in_iq : bool;        (* renamed, not yet issued *)
}

(* Slot flag bits decoded at pull, above the stream's three. *)
let f_thumb = 8  (* Thumb16 encoding *)
let f_chain = 16 (* carries a chain tag *)
let f_work = 32  (* useful work ([Prog.Trace.is_work]) *)

let () =
  assert (Prog.Trace.Stream.(flag_cond lor flag_taken lor flag_break) < 8)

let rec reads_mask m = function
  | [] -> m
  | (r : Isa.Reg.t) :: tl -> reads_mask (m lor (1 lsl (r :> int))) tl

(* What [decode] needs of an opcode, indexed by [Isa.Opcode.to_index]:
   it reads the opcode field of the packed word and looks up the rest,
   with no call per event. *)
let opcode_of = Array.init Isa.Opcode.count Isa.Opcode.of_index

let unit_of =
  Array.map
    (fun op ->
      match Isa.Opcode.unit_kind op with
      | `Int_alu -> Alu_unit
      | `Int_mul -> (match op with Isa.Opcode.Div -> Div_unit | _ -> Mul_unit)
      | `Mem -> Mem_unit
      | `Fp -> Fp_unit
      | `Branch -> Branch_unit
      | `None -> No_unit)
    opcode_of

let latency_of = Array.map Isa.Opcode.exec_latency opcode_of
let control_of = Array.map Isa.Opcode.is_control opcode_of
let thumb16 = Isa.Instr.encoding_index Isa.Instr.Thumb16

(* Copy what the stages read from the static instruction into [s],
   once per event, at pull; returns the slot flag bits to add to the
   stream's. *)
let decode s (ins : Isa.Instr.t) =
  let w = ins.word in
  let k = (w lsr Isa.Instr.opcode_shift) land Isa.Instr.opcode_mask in
  let op = opcode_of.(k) in
  s.opcode <- op;
  s.uid <- ins.uid;
  s.unit_class <- unit_of.(k);
  s.latency <- latency_of.(k);
  let srcs = reads_mask 0 ins.srcs in
  (* The destination field holds the register index plus one, 0 for
     none. *)
  let d = ((w lsr Isa.Instr.dst_shift) land Isa.Instr.dst_mask) - 1 in
  (match op with
  | Isa.Opcode.Store ->
    (* a store also reads its data "dst" (cf. Instr.regs_read) *)
    s.reads <- (if d >= 0 then srcs lor (1 lsl d) else srcs);
    s.dst <- -1
  | Isa.Opcode.Branch ->
    s.reads <- srcs;
    s.dst <- -1
  | _ ->
    s.reads <- srcs;
    s.dst <- d);
  let work =
    match op with
    | Isa.Opcode.Cdp_switch -> false
    | _ -> ins.uid >= Prog.Trace.control_uid_base || not control_of.(k)
  in
  (if (w lsr Isa.Instr.encoding_shift) land Isa.Instr.encoding_mask = thumb16
   then f_thumb
   else 0)
  lor (match ins.chain with Some _ -> f_chain | None -> 0)
  lor if work then f_work else 0

type source = unit -> Prog.Trace.Stream.cursor

(* Int-specialized max: the stage accounting below takes several per
   retirement, and the polymorphic Stdlib.max goes through compare_val. *)
let[@inline] imax (a : int) b = if a >= b then a else b

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (2 * p)

(* Bounded FIFO of stream indices backing the stage queues (fetch
   queue, decode queue, ROB).  Each is capped by its architected
   capacity, so one int array serves the whole run and push/pop are
   GC-silent — unlike [Queue.t], which conses a cell per element.  The
   backing array is a power of two at least the capacity, so positions
   wrap with a mask instead of a divide; the callers enforce the
   architected capacity. *)
type iring = {
  q : int array;
  qmask : int;
  mutable hd : int;  (* position of the oldest entry *)
  mutable n : int;   (* population *)
}

let iring_make cap =
  let size = pow2_at_least cap 1 in
  { q = Array.make size 0; qmask = size - 1; hd = 0; n = 0 }

let[@inline] iring_is_empty r = r.n = 0
let[@inline] iring_peek r = r.q.(r.hd)

let[@inline] iring_push r v =
  r.q.((r.hd + r.n) land r.qmask) <- v;
  r.n <- r.n + 1

let[@inline] iring_pop r =
  let v = r.q.(r.hd) in
  r.hd <- (r.hd + 1) land r.qmask;
  r.n <- r.n - 1;
  v

(* Timing wheel of stream indices: bucket [c land wmask] holds the
   entries due at cycle [c].  Every entry lands a bounded distance
   ahead of the current cycle (the wheel doubles when one would not
   fit), and each bucket is drained exactly at its cycle, so two
   distinct cycles never share a bucket.  The simulator keeps two: the
   completion calendar and the not-yet-ready issue candidates. *)
type wheel = {
  mutable buckets : int array array;
  mutable lens : int array;
  mutable wmask : int;
  mutable count : int;  (* entries held *)
}

let wheel_make () =
  { buckets = Array.make 1024 [||]; lens = Array.make 1024 0; wmask = 1023;
    count = 0 }

let bucket_push buckets lens b idx =
  let arr = buckets.(b) in
  let n = lens.(b) in
  if n = Array.length arr then begin
    let grown = Array.make (imax 4 (2 * n)) 0 in
    Array.blit arr 0 grown 0 n;
    grown.(n) <- idx;
    buckets.(b) <- grown
  end
  else arr.(n) <- idx;
  lens.(b) <- n + 1

(* [due idx] is the cycle an entry is filed under. *)
let wheel_grow w delta ~due =
  let nsize = ref (2 * (w.wmask + 1)) in
  while delta >= !nsize do
    nsize := 2 * !nsize
  done;
  let nbuckets = Array.make !nsize [||] in
  let nlens = Array.make !nsize 0 in
  for b = 0 to w.wmask do
    let arr = w.buckets.(b) in
    for k = 0 to w.lens.(b) - 1 do
      let idx = arr.(k) in
      bucket_push nbuckets nlens (due idx land (!nsize - 1)) idx
    done
  done;
  w.buckets <- nbuckets;
  w.lens <- nlens;
  w.wmask <- !nsize - 1

let wheel_push w ~now ~at ~due idx =
  if at - now > w.wmask then wheel_grow w (at - now) ~due;
  bucket_push w.buckets w.lens (at land w.wmask) idx;
  w.count <- w.count + 1

type acc = {
  mutable count : int;
  mutable fetch_i : int;
  mutable fetch_rd : int;
  mutable decode : int;
  mutable rename : int;
  mutable issue_wait : int;
  mutable execute : int;
  mutable commit_wait : int;
}

let new_acc () =
  {
    count = 0;
    fetch_i = 0;
    fetch_rd = 0;
    decode = 0;
    rename = 0;
    issue_wait = 0;
    execute = 0;
    commit_wait = 0;
  }

let acc_to_summary a : Stats.stage_summary =
  {
    count = a.count;
    fetch_i = a.fetch_i;
    fetch_rd = a.fetch_rd;
    decode = a.decode;
    rename = a.rename;
    issue_wait = a.issue_wait;
    execute = a.execute;
    commit_wait = a.commit_wait;
  }

let dummy_instr = Isa.Instr.make ~uid:(-1) ~opcode:Isa.Opcode.Nop ()

let no_itemp : int array = [||]

(* After two fetch-side touches of one line with no data-side touch
   in between, the line is resident and the most recent in its L1i set
   and in its L2 set, and the second touch was a hit.  A third touch
   would hit again and change no tag, no count ([fills] counts misses)
   and no set's replacement order: LRU stamps keep their relative
   order, and an RRIP hit sets the state the second touch already set.
   (The second touch is not redundant: it turns an RRIP fill's insertion
   state into the hit state.)  It would only clear the victim report,
   which every later access rewrites before anyone reads it.  So each
   run of same-line fetches is touched twice at most. *)
let warm hier (cursor : Prog.Trace.Stream.cursor) =
  let line_mask = lnot ((Mem.Hierarchy.config hier).line_bytes - 1) in
  let last = ref (-1) and again = ref false in
  let lo = ref (Prog.Trace.Stream.take cursor) in
  while !lo >= 0 do
    let pcs = cursor.pc and addrs = cursor.mem_addr in
    for i = !lo to cursor.lim - 1 do
      let line = pcs.(i) land line_mask in
      if line <> !last then begin
        Mem.Hierarchy.touch_i hier line;
        last := line;
        again := true
      end
      else if !again then begin
        Mem.Hierarchy.touch_i hier line;
        again := false
      end;
      let a = addrs.(i) in
      if a >= 0 then begin
        Mem.Hierarchy.touch_d hier a;
        last := -1
      end
    done;
    lo := Prog.Trace.Stream.take cursor
  done

let run_stream ?hier ?(checks = false) ?on_commit ?probe ?(itemp = no_itemp)
    (cfg : Config.t) (source : source) : Stats.t =
  (* Block-temperature table for the TRRIP i-cache policy: indexed by
     block id, 0 hot .. 3 cold.  Empty = no hints (every lookup yields
     -1, the policies' "unknown"). *)
  let nitemp = Array.length itemp in
  let observed = Option.is_some on_commit in
  let f_cond = Prog.Trace.Stream.flag_cond in
  let f_taken = Prog.Trace.Stream.flag_taken in
  let f_break = Prog.Trace.Stream.flag_break in
  let fresh_slot () =
    {
      idx = -1;
      pc = 0;
      size = 0;
      mem_addr = -1;
      next_pc = 0;
      flags = 0;
      block_id = -1;
      opcode = Isa.Opcode.Nop;
      uid = -1;
      unit_class = No_unit;
      latency = 0;
      dst = -1;
      reads = 0;
      instr = dummy_instr;
      seq = -1;
      body_index = -1;
      func = -1;
      fetch_request = -1;
      stall_i = 0;
      stall_bp = 0;
      fetched = -1;
      decoded = -1;
      renamed = -1;
      issued = -1;
      completed = -1;
      committed = -1;
      waiting_on = 0;
      ready_time = 0;
      dependents = [||];
      ndeps = 0;
      fanout = 0;
      in_iq = false;
    }
  in
  (* Ring capacity: every in-flight slot sits in the fetch queue, the
     decode queue or the ROB, plus the one not-yet-fetched head the
     fetch engine is staring at — so the live *population* is bounded by
     the machine window.  The live index *span* can exceed it: CDP
     markers retire at decode and vacate their slots early, so in
     marker-dense code the distance from oldest live slot to newest pull
     outgrows the population.  When a pull would land on a still-live
     record the ring doubles; the records kept are a contiguous index
     range shorter than the old capacity, so re-placing each at
     [idx land (ncap - 1)] never collides.  Capacity is a power of two
     (indexing is a mask) and converges to the maximal span — a machine
     property, independent of stream length.  Every reference is a
     stream index, so a moved record is found at its new place.  The
     slot of index [i] is [!ring.(i land !rmask)], written out at each
     use: a helper closing over the two refs would be a call per
     lookup, about ten per event. *)
  let cap =
    ref (pow2_at_least (cfg.fetch_queue + cfg.decode_queue + cfg.rob + 8) 1)
  in
  let rmask = ref (!cap - 1) in
  let ring = ref (Array.init !cap (fun _ -> fresh_slot ())) in
  let grow_ring () =
    let ncap = 2 * !cap in
    let nring = Array.init ncap (fun _ -> fresh_slot ()) in
    Array.iter
      (fun s -> if s.idx >= 0 then nring.(s.idx land (ncap - 1)) <- s)
      !ring;
    ring := nring;
    cap := ncap;
    rmask := ncap - 1
  in
  let hier =
    match hier with
    | Some h ->
      if Mem.Hierarchy.config h <> cfg.mem then
        invalid_arg "Cpu.run_stream: hierarchy built for another Config.mem";
      h
    | None ->
      (* Warm the memory hierarchy to steady state: replay the trace's
         footprint through the caches.  The paper samples minutes-old
         executions, so cold-start misses are not part of what any
         configuration should be charged for. *)
      let h = Mem.Hierarchy.create cfg.mem in
      warm h (source ());
      h
  in
  let cursor = source () in
  let bpu = Bpu.Predictor.create cfg.bpu in
  let crit_table =
    Criticality_table.create ~threshold:cfg.fanout_critical_threshold ()
  in
  let efetch = Efetch.create ~line_bytes:cfg.mem.line_bytes () in

  let invariant_fail fmt =
    Printf.ksprintf
      (fun msg -> failwith ("Cpu.run_stream invariant violated: " ^ msg))
      fmt
  in

  (* The static instruction is read only to rebuild an event for
     [on_commit] and for a probe's chain fields. *)
  let keep_instr = observed || Option.is_some probe in

  (* Queues between stages: stream indices into the slot ring. *)
  let fetch_q = iring_make cfg.fetch_queue in
  let decode_q = iring_make cfg.decode_queue in
  let rob = iring_make cfg.rob in

  (* Stream head: the stream index of the next not-yet-fetched
     instruction, copied and decoded into its ring slot the moment the
     fetch engine first needs it; -1 when none is pulled.  [col] ..
     [col_lim] is the part of the cursor's current batch claimed with
     [take] and not yet pulled. *)
  let pulled = ref 0 in
  let head = ref (-1) in
  let exhausted = ref false in
  let col = ref 0 in
  let col_lim = ref 0 in
  let peek_head () =
    if !head >= 0 || !exhausted then !head
    else begin
      let i =
        if !col < !col_lim then !col
        else begin
          let lo = Prog.Trace.Stream.take cursor in
          col_lim := cursor.lim;
          lo
        end
      in
      if i < 0 then begin
        exhausted := true;
        -1
      end
      else begin
        col := i + 1;
        let idx = !pulled in
        while
          (let s = !ring.(idx land !rmask) in
           s.idx >= 0 && s.committed < 0)
        do
          grow_ring ()
        done;
        let s = !ring.(idx land !rmask) in
        s.idx <- idx;
        s.pc <- cursor.pc.(i);
        s.size <- cursor.size.(i);
        s.mem_addr <- cursor.mem_addr.(i);
        s.next_pc <- cursor.next_pc.(i);
        s.block_id <- cursor.block_id.(i);
        let ins = cursor.instr.(i) in
        s.flags <- cursor.flags.(i) lor decode s ins;
        if keep_instr then s.instr <- ins;
        if observed then begin
          s.seq <- cursor.seq.(i);
          s.body_index <- cursor.body_index.(i);
          s.func <- cursor.func.(i)
        end;
        s.fetch_request <- -1;
        s.stall_i <- 0;
        s.stall_bp <- 0;
        s.fetched <- -1;
        s.decoded <- -1;
        s.renamed <- -1;
        s.issued <- -1;
        s.completed <- -1;
        s.committed <- -1;
        s.waiting_on <- 0;
        s.ready_time <- 0;
        s.ndeps <- 0;
        s.fanout <- 0;
        s.in_iq <- false;
        incr pulled;
        head := idx;
        idx
      end
    end
  in
  let event_of s : Prog.Trace.event =
    {
      seq = s.seq;
      pc = s.pc;
      size = s.size;
      instr = s.instr;
      block_id = s.block_id;
      body_index = s.body_index;
      func = s.func;
      mem_addr = s.mem_addr;
      is_cond_branch = s.flags land f_cond <> 0;
      taken = s.flags land f_taken <> 0;
      next_pc = s.next_pc;
      fetch_break = s.flags land f_break <> 0;
    }
  in

  (* Issue queue.  Occupancy is a count (rename stops at [cfg.iq]); the
     entries themselves are tracked by readiness.  An instruction whose
     last operand has arrived ([waiting_on = 0] and [ready_time <= now])
     sits in [ready], kept in age (stream-index) order; one whose
     operand cycle is known but still ahead waits in [pending] under its
     [ready_time]; one still waiting on a producer's wake-up sits only
     in that producer's [dependents].  Issue scans [ready] alone, which
     is exact: readiness never reverts before issue, issuing one
     instruction cannot change another's readiness within the cycle,
     and the criticality predictor is a pure lookup — so a scan of every
     queue entry, oldest first, would select exactly these.  [ready]
     holds stream indices, so age order is index order. *)
  let iq_cap = max 1 cfg.iq in
  let iq_count = ref 0 in
  let ready = Array.make iq_cap (-1) in
  let nready = ref 0 in
  let pending = wheel_make () in
  let ready_insert idx =
    let j = ref !nready in
    while !j > 0 && ready.(!j - 1) > idx do
      ready.(!j) <- ready.(!j - 1);
      decr j
    done;
    ready.(!j) <- idx;
    incr nready
  in
  let ready_time_of idx = !ring.(idx land !rmask).ready_time in
  (* [s] has no unresolved producer: it becomes an issue candidate at
     [ready_time]. *)
  let make_ready now s =
    if s.ready_time <= now then ready_insert s.idx
    else wheel_push pending ~now ~at:s.ready_time ~due:ready_time_of s.idx
  in
  let drain_pending now =
    let b = now land pending.wmask in
    let n = pending.lens.(b) in
    if n > 0 then begin
      let arr = pending.buckets.(b) in
      for k = 0 to n - 1 do
        ready_insert arr.(k)
      done;
      pending.lens.(b) <- 0;
      pending.count <- pending.count - n
    end
  in
  (* Dependent edges are stored as global stream indices in growable int
     arrays — no list cons per wake-up edge.  The arrays survive slot
     recycling (only [ndeps] resets), so their footprint is O(window). *)
  let add_dependent producer (s : slot) =
    let nd = producer.ndeps in
    let cap = Array.length producer.dependents in
    if nd = cap then begin
      let grown = Array.make (max 4 (2 * cap)) 0 in
      Array.blit producer.dependents 0 grown 0 nd;
      producer.dependents <- grown
    end;
    producer.dependents.(nd) <- s.idx;
    producer.ndeps <- nd + 1
  in

  (* Completion calendar: a timing wheel filed by completion cycle.
     Every completion lands at most a bounded execution latency ahead
     of [now] (the wheel doubles in the DRAM-bound worst case).  The
     within-cycle wake-up order is observationally irrelevant: the
     effects (decrement, max, reset) commute, and the ready list is
     kept in age order whatever the insertion order. *)
  let calendar = wheel_make () in
  let completed_of idx = !ring.(idx land !rmask).completed in
  let schedule_completion ~now s cycle =
    s.completed <- cycle;
    wheel_push calendar ~now ~at:cycle ~due:completed_of s.idx
  in

  (* Register rename: the stream index of the last in-flight (or most
     recent) writer per reg, -1 before the first.  A record whose [idx]
     differs means the slot was recycled, which implies the writer
     retired long ago — a case whose every effect below is a no-op
     anyway. *)
  let rename_table = Array.make Isa.Reg.count (-1) in

  (* Fetch engine state. *)
  let fetch_resume_at = ref 0 in
  let cur_line = ref (-1) in
  let pending_mispredict = ref (-1) in  (* stream index; -1 none *)
  let decode_block_until = ref 0 in

  (* Machine-level idle-fetch counters. *)
  let idle_supply = ref 0 in
  let idle_backpressure = ref 0 in
  (* Stall cycles accumulated since the last successful fetch cycle;
     attributed to the instructions of the next fetched group, which are
     the ones that were held at the fetch stage during the stall. *)
  let pending_stall_i = ref 0 in
  let pending_stall_bp = ref 0 in

  (* Functional units. *)
  let div_busy_until = ref 0 in

  (* Fetch-bandwidth counters (maintained in both fetch modes). *)
  let fbytes_total = ref 0 in
  let fgroups = ref 0 in

  (* Retirement counters. *)
  let committed_total = ref 0 in
  let committed_work = ref 0 in
  let thumb_committed = ref 0 in
  let cdp_markers = ref 0 in
  let critical_count = ref 0 in
  let commit_seq = ref 0 in
  (* Invariant-check bookkeeping (tiny when checks are off).  Producers
     are remembered by stream index, so the check survives the producer
     retiring and its record being recycled. *)
  let last_committed_idx = ref (-1) in
  let producers : (int, int list) Hashtbl.t =
    Hashtbl.create (if checks then 1024 else 1)
  in
  let fetch_live = ref 0 in
  let fetch_active = ref 0 in
  let acc_all = new_acc () in
  let acc_crit = new_acc () in
  let acc_chain = new_acc () in

  let line_mask = lnot (cfg.mem.line_bytes - 1) in
  let line_of pc = pc land line_mask in

  let is_critical s = s.fanout >= cfg.fanout_critical_threshold in

  (* Stage attribution is computed once per retirement (the same
     arithmetic that used to live in [record], hoisted so the telemetry
     probe observes the very numbers the accumulators sum — keeping
     [Stats.t] bit-identical with the probe on or off). *)
  let record acc ~fetch_i ~fetch_rd ~decode ~issue_wait ~execute ~commit_wait
      =
    acc.count <- acc.count + 1;
    acc.fetch_i <- acc.fetch_i + fetch_i;
    acc.fetch_rd <- acc.fetch_rd + fetch_rd;
    acc.decode <- acc.decode + decode;
    acc.rename <- acc.rename + 1;
    acc.issue_wait <- acc.issue_wait + issue_wait;
    acc.execute <- acc.execute + execute;
    acc.commit_wait <- acc.commit_wait + commit_wait
  in

  let retire now (s : slot) =
    s.committed <- now;
    (match on_commit with
    | None -> ()
    | Some f ->
      f { commit_seq = !commit_seq; commit_cycle = now; event = event_of s });
    incr commit_seq;
    if checks then begin
      if s.idx <= !last_committed_idx then
        invariant_fail "out-of-order retirement: slot %d after slot %d" s.idx
          !last_committed_idx;
      last_committed_idx := s.idx;
      if
        not
          (0 <= s.fetch_request
          && s.fetch_request <= s.fetched
          && s.fetched < s.decoded && s.decoded < s.renamed
          && s.renamed < s.issued && s.issued <= s.completed
          && s.completed <= now)
      then
        invariant_fail
          "non-monotone stage timestamps for slot %d (uid %d): \
           req=%d f=%d d=%d r=%d i=%d x=%d c=%d"
          s.idx s.uid s.fetch_request s.fetched s.decoded s.renamed
          s.issued s.completed now
    end;
    incr committed_total;
    let f = s.flags in
    (* Work accounting mirrors Trace.work_count. *)
    if f land f_work <> 0 then incr committed_work;
    if f land f_thumb <> 0 then incr thumb_committed;
    Criticality_table.train crit_table ~pc:s.pc ~fanout:s.fanout;
    let fetch_i = s.stall_i in
    let fetch_rd = s.stall_bp + imax 0 (s.decoded - s.fetched - 1) in
    let decode = imax 0 (s.renamed - s.decoded) in
    let issue_wait = imax 0 (s.issued - s.renamed - 1) in
    let execute = imax 0 (s.completed - s.issued) in
    let commit_wait = imax 0 (s.committed - s.completed) in
    let critical = is_critical s in
    record acc_all ~fetch_i ~fetch_rd ~decode ~issue_wait ~execute
      ~commit_wait;
    if critical then begin
      incr critical_count;
      record acc_crit ~fetch_i ~fetch_rd ~decode ~issue_wait ~execute
        ~commit_wait
    end;
    if f land f_chain <> 0 then
      record acc_chain ~fetch_i ~fetch_rd ~decode ~issue_wait ~execute
        ~commit_wait;
    match probe with
    | None -> ()
    | Some p ->
      let chain_id, chain_pos, chain_len =
        match s.instr.chain with
        | Some (c : Isa.Instr.chain_tag) -> (c.chain_id, c.pos, c.len)
        | None -> (-1, 0, 0)
      in
      Telemetry.Probe.retire p
        {
          cycle = now;
          critical;
          chain_id;
          chain_pos;
          chain_len;
          dispatch = s.renamed;
          fetch_i;
          fetch_rd;
          decode;
          rename = 1;
          issue_wait;
          execute;
          commit_wait;
        }
  in

  (* ---------------- pipeline stages, one call each per cycle ------- *)

  let do_commit now =
    let budget = ref cfg.width in
    let continue = ref true in
    while !continue && !budget > 0 && not (iring_is_empty rob) do
      let s = !ring.(iring_peek rob land !rmask) in
      if s.completed >= 0 && s.completed <= now then begin
        ignore (iring_pop rob);
        (match s.opcode with
        | Isa.Opcode.Store when s.mem_addr >= 0 ->
          ignore (Mem.Hierarchy.dwrite_lat hier ~now ~pc:s.pc s.mem_addr)
        | _ -> ());
        retire now s;
        decr budget
      end
      else continue := false
    done
  in

  let do_completions now =
    let b = now land calendar.wmask in
    let n = calendar.lens.(b) in
    if n > 0 then begin
      let arr = calendar.buckets.(b) in
      let slots = !ring and mask = !rmask in
      for k = 0 to n - 1 do
        let s = slots.(arr.(k) land mask) in
        let deps = s.dependents in
        for j = 0 to s.ndeps - 1 do
          let dep = slots.(deps.(j) land mask) in
          if checks && dep.idx <> deps.(j) then
            invariant_fail
              "dependent slot %d recycled while producer %d in flight"
              deps.(j) s.idx;
          dep.waiting_on <- dep.waiting_on - 1;
          if dep.ready_time < now then dep.ready_time <- now;
          if dep.waiting_on = 0 then make_ready now dep
        done;
        s.ndeps <- 0
      done;
      calendar.lens.(b) <- 0;
      calendar.count <- calendar.count - n
    end
  in

  let issue_one now (s : slot) =
    if checks then begin
      match Hashtbl.find_opt producers s.idx with
      | None -> ()
      | Some ps ->
        List.iter
          (fun pidx ->
            (* A recycled record means the producer retired — and hence
               completed — before this issue; only live records carry
               timestamps worth checking. *)
            let p = !ring.(pidx land !rmask) in
            if p.idx = pidx && (p.completed < 0 || p.completed > now) then
              invariant_fail
                "slot %d (uid %d) issued at cycle %d before producer slot %d \
                 completed"
                s.idx s.uid now pidx)
          ps;
        Hashtbl.remove producers s.idx
    end;
    s.issued <- now;
    s.in_iq <- false;
    let completion =
      match s.opcode with
      | Isa.Opcode.Load when s.mem_addr >= 0 ->
        now + 1 + Mem.Hierarchy.dread_lat hier ~now ~pc:s.pc s.mem_addr
      | Isa.Opcode.Store -> now + 1
      | _ -> now + s.latency
    in
    schedule_completion ~now s completion
  in

  (* Issue-stage scratch state, allocated once per run (not per cycle):
     the unit counters, the issue counter, and the per-cycle criticality
     flags for Critical_first (predict is queried exactly once per ready
     entry, in age order). *)
  let alu = ref 0 and mul = ref 0 and mem = ref 0 and fp = ref 0 in
  let br = ref 0 in
  let issued = ref 0 in
  let crit_flags = Array.make iq_cap false in
  (* Take one unit of a kind whose per-cycle use is [counter], if any
     is left. *)
  let claim counter limit =
    !counter < limit
    && begin
         incr counter;
         true
       end
  in
  (* Issue [s] if the width and its functional unit allow. *)
  let try_issue now (s : slot) =
    if !issued < cfg.width then begin
      let unit_free =
        match s.unit_class with
        | Alu_unit -> claim alu cfg.int_alus
        | Mul_unit -> claim mul cfg.mul_units
        | Div_unit ->
          now >= !div_busy_until
          && claim mul cfg.mul_units
          && begin
               div_busy_until := now + s.latency;
               true
             end
        | Mem_unit -> claim mem cfg.mem_ports
        | Fp_unit -> claim fp cfg.fp_units
        | Branch_unit -> claim br cfg.branch_units
        | No_unit -> true
      in
      if unit_free then begin
        issue_one now s;
        incr issued
      end
    end
  in
  let do_issue now =
    drain_pending now;
    if checks then begin
      (* The ready list must stay within the queue and in age order —
         the select loops below rely on scanning it oldest-first — and
         hold only issue candidates.  (One never listed would never
         issue: the queue would not drain.) *)
      if !iq_count > cfg.iq then
        invariant_fail "issue queue over capacity: %d > %d" !iq_count cfg.iq;
      if !nready > !iq_count then
        invariant_fail "ready list holds %d of %d queued entries" !nready
          !iq_count;
      for i = 0 to !nready - 1 do
        let s = !ring.(ready.(i) land !rmask) in
        if i > 0 && ready.(i - 1) >= ready.(i) then
          invariant_fail "ready list not in age order at position %d" i;
        if
          not
            (s.idx = ready.(i) && s.in_iq && s.waiting_on = 0
           && s.ready_time <= now)
        then invariant_fail "slot %d on the ready list is not ready" ready.(i)
      done
    end;
    alu := 0;
    mul := 0;
    mem := 0;
    fp := 0;
    br := 0;
    issued := 0;
    let len = !nready in
    let slots = !ring and mask = !rmask in
    (match cfg.issue_policy with
    | Config.Oldest_first ->
      (* [try_issue] does nothing once [width] have issued. *)
      let i = ref 0 in
      while !i < len && !issued < cfg.width do
        try_issue now slots.(ready.(!i) land mask);
        incr i
      done
    | Config.Critical_first ->
      for i = 0 to len - 1 do
        crit_flags.(i) <-
          Criticality_table.predict crit_table
            ~pc:slots.(ready.(i) land mask).pc
      done;
      for i = 0 to len - 1 do
        if crit_flags.(i) then try_issue now slots.(ready.(i) land mask)
      done;
      for i = 0 to len - 1 do
        if not crit_flags.(i) then try_issue now slots.(ready.(i) land mask)
      done);
    if !issued > 0 then begin
      (* Compact in place, preserving age order. *)
      let j = ref 0 in
      for i = 0 to len - 1 do
        let idx = ready.(i) in
        if slots.(idx land mask).in_iq then begin
          ready.(!j) <- idx;
          incr j
        end
      done;
      nready := !j;
      iq_count := !iq_count - !issued
    end
  in

  (* Rename scratch: the stream indices of the distinct producers seen
     for the instruction being renamed — at most one per register read,
     so a register file's worth. *)
  let seen = Array.make Isa.Reg.count (-1) in
  let seen_n = ref 0 in
  let note_read now (s : slot) ri =
    let pidx = rename_table.(ri) in
    (* -1: no writer yet.  A record holding another index was
       recycled, so the writer retired — for which every branch below
       is a no-op. *)
    if pidx >= 0 then begin
      let producer = !ring.(pidx land !rmask) in
      if producer.idx = pidx then begin
        let dup = ref false in
        for k = 0 to !seen_n - 1 do
          if seen.(k) = pidx then dup := true
        done;
        if not !dup then begin
          seen.(!seen_n) <- pidx;
          incr seen_n;
          if producer.committed < 0 then
            producer.fanout <- producer.fanout + 1;
          if producer.completed < 0 then begin
            (* completion time unknown: wait for wake-up *)
            add_dependent producer s;
            s.waiting_on <- s.waiting_on + 1
          end
          else if producer.completed > now then begin
            if producer.completed > s.ready_time then
              s.ready_time <- producer.completed
          end
        end
      end
    end
  in

  let do_rename now =
    let budget = ref cfg.width in
    let continue = ref true in
    while
      !continue && !budget > 0
      && (not (iring_is_empty decode_q))
      && rob.n < cfg.rob
      && !iq_count < cfg.iq
    do
      let s = !ring.(iring_peek decode_q land !rmask) in
      if s.decoded >= 0 && s.decoded < now then begin
        ignore (iring_pop decode_q);
        s.renamed <- now;
        s.ready_time <- now + 1;
        seen_n := 0;
        (* The registers read, lowest first: the producer set, the
           fanout counts and the wake-up edges do not depend on the
           order. *)
        let m = ref s.reads and ri = ref 0 in
        while !m <> 0 do
          if !m land 1 <> 0 then note_read now s !ri;
          m := !m lsr 1;
          incr ri
        done;
        if checks && !seen_n > 0 then
          Hashtbl.replace producers s.idx
            (Array.to_list (Array.sub seen 0 !seen_n));
        if s.dst >= 0 then rename_table.(s.dst) <- s.idx;
        iring_push rob s.idx;
        incr iq_count;
        s.in_iq <- true;
        if s.waiting_on = 0 then make_ready now s;
        decr budget
      end
      else continue := false
    done
  in

  let do_decode now =
    if now >= !decode_block_until then begin
      let budget = ref cfg.width in
      let continue = ref true in
      while
        !continue && !budget > 0
        && (not (iring_is_empty fetch_q))
        && decode_q.n < cfg.decode_queue
      do
        let s = !ring.(iring_peek fetch_q land !rmask) in
        if s.fetched >= 0 && s.fetched < now then begin
          ignore (iring_pop fetch_q);
          s.decoded <- now;
          decr budget;
          match s.opcode with
          | Isa.Opcode.Cdp_switch -> (
            (* The CDP marker retires at decode: it informs the decoder
               of the format switch.  It always consumes a decode slot;
               the paper's conservative one extra decode-stage cycle is
               the default penalty, ending this decode cycle at the
               marker.  A penalty of 0 models free switching (used by
               the CDP-cost ablation). *)
            if cfg.cdp_decode_penalty > 0 then begin
              decode_block_until := now + cfg.cdp_decode_penalty - 1;
              continue := false
            end;
            s.renamed <- now;
            s.issued <- now;
            s.completed <- now;
            s.committed <- now;
            incr cdp_markers;
            incr committed_total;
            match probe with
            | Some p ->
              Telemetry.Probe.cdp_marker p ~cycle:now
                ~penalty:cfg.cdp_decode_penalty
            | None -> ())
          | _ -> iring_push decode_q s.idx
        end
        else continue := false
      done
    end
  in

  (* Fetch-stage scratch refs, allocated once per run. *)
  let bytes = ref 0 in
  let new_line_accessed = ref false in
  let fetched_any = ref false in
  let blocked_bp = ref false in
  let stop = ref false in
  let do_fetch now =
    let first = peek_head () in
    if first >= 0 then begin
      if checks then incr fetch_live;
      let s = !ring.(first land !rmask) in
      if s.fetch_request < 0 then s.fetch_request <- now;
      (* Redirect pending: wait for the mispredicted branch to resolve.
         Its record is still in place: fetch has stopped behind it, so
         nothing younger than the head is pulled to recycle it. *)
      let blocked_redirect =
        let b = !pending_mispredict in
        if b < 0 then false
        else begin
          let b = !ring.(b land !rmask) in
          if b.completed >= 0 && now >= b.completed + cfg.mispredict_penalty
          then begin
            pending_mispredict := -1;
            cur_line := -1;
            false
          end
          else true
        end
      in
      if blocked_redirect || now < !fetch_resume_at then begin
        (* Wrong-path modelling: while waiting on an unresolved branch
           the front end keeps streaming sequential lines from the
           not-taken path through the i-cache — pollution and pointless
           energy, occasionally useful warming, exactly as on real
           hardware.  The wrong-path instructions themselves are not
           simulated (their results are squashed). *)
        if blocked_redirect && cfg.wrong_path_fetch then begin
          let b = !pending_mispredict in
          if b >= 0 then begin
            let b = !ring.(b land !rmask) in
            let line = cfg.mem.line_bytes in
            let ahead =
              let d = now - b.fetched in
              if d <= 0 then 0 else if d >= 8 then 8 else d
            in
            let wrong_pc = b.pc + b.size + (line * ahead) in
            ignore (Mem.Hierarchy.ifetch_lat hier ~now wrong_pc)
          end
        end;
        incr pending_stall_i;
        incr idle_supply
      end
      else begin
        (* Group budget: a flat [fetch_bytes] allowance, regardless of
           alignment — the behaviour the golden digests pin. *)
        bytes := cfg.fetch_bytes;
        new_line_accessed := false;
        fetched_any := false;
        blocked_bp := false;
        stop := false;
        while not !stop do
          let idx = peek_head () in
          if idx < 0 then stop := true
          else begin
            let s = !ring.(idx land !rmask) in
            if s.fetch_request < 0 then s.fetch_request <- now;
            if fetch_q.n >= cfg.fetch_queue then begin
              blocked_bp := true;
              stop := true
            end
            else begin
              let line = line_of s.pc in
              if line <> !cur_line && !new_line_accessed then
                (* second new line in one cycle: wait for next cycle *)
                stop := true
              else begin
                if line <> !cur_line then begin
                  let hint =
                    let b = s.block_id in
                    if b >= 0 && b < nitemp then itemp.(b) else -1
                  in
                  let lat =
                    Mem.Hierarchy.ifetch_lat_hinted hier ~now ~hint s.pc
                  in
                  new_line_accessed := true;
                  cur_line := line;
                  if lat > cfg.mem.l1i_hit then begin
                    fetch_resume_at := now + lat - cfg.mem.l1i_hit;
                    stop := true
                  end
                end;
                if !bytes < s.size then stop := true;
                if not !stop then begin
                  bytes := !bytes - s.size;
                  fbytes_total := !fbytes_total + s.size;
                  s.fetched <- now;
                  s.stall_i <- s.stall_i + !pending_stall_i;
                  s.stall_bp <- s.stall_bp + !pending_stall_bp;
                  iring_push fetch_q idx;
                  fetched_any := true;
                  head := -1;
                  (* Optimization hooks that observe the fetch stream. *)
                  (match s.opcode with
                  | Isa.Opcode.Call when cfg.efetch ->
                    List.iter
                      (fun addr -> Mem.Hierarchy.prefetch_i hier ~now addr)
                      (Efetch.on_call efetch ~target:s.next_pc)
                  | Isa.Opcode.Load
                    when cfg.critical_load_prefetch && s.mem_addr >= 0
                         && Criticality_table.predict crit_table ~pc:s.pc ->
                    Mem.Hierarchy.prefetch_d hier ~now ~pc:s.pc s.mem_addr
                  | _ -> ());
                  (* Control flow: mispredicts block fetch; correct taken
                     transfers end the fetch group. *)
                  let f = s.flags in
                  if f land f_cond <> 0 then begin
                    let taken = f land f_taken <> 0 in
                    let correct =
                      Bpu.Predictor.predict_and_update bpu ~pc:s.pc ~taken
                    in
                    if not correct then begin
                      pending_mispredict := idx;
                      stop := true
                    end
                    else if taken then stop := true
                  end
                  else if f land f_break <> 0 then stop := true
                end
              end
            end
          end
        done;
        if !fetched_any then begin
          incr fgroups;
          if checks then incr fetch_active;
          pending_stall_i := 0;
          pending_stall_bp := 0
        end
        else if !blocked_bp then begin
          incr pending_stall_bp;
          incr idle_backpressure
        end
        else begin
          incr pending_stall_i;
          incr idle_supply
        end
      end
    end
  in

  (* ------------------------------ main loop ------------------------ *)
  (* Prime the head so an empty stream finishes in zero cycles. *)
  ignore (peek_head ());
  let now = ref 0 in
  let finished () =
    !exhausted
    && !head < 0
    && iring_is_empty fetch_q && iring_is_empty decode_q
    && iring_is_empty rob
  in
  while not (finished ()) do
    if !now > (!pulled * 300) + 1_000_000 then
      failwith "Cpu.run_stream: deadlock (cycle guard exceeded)";
    do_commit !now;
    do_completions !now;
    do_issue !now;
    do_rename !now;
    do_decode !now;
    do_fetch !now;
    incr now
  done;

  let n = !pulled in
  if checks then begin
    (* End-of-run accounting identities. *)
    if !committed_total <> n then
      invariant_fail "committed %d of %d trace events" !committed_total n;
    if !iq_count <> 0 || !nready <> 0 || pending.count <> 0 then
      invariant_fail
        "issue queue not drained (%d entries left, %d ready, %d pending)"
        !iq_count !nready pending.count;
    if calendar.count <> 0 then
      invariant_fail "completion calendar not drained (%d entries pending)"
        calendar.count;
    if Hashtbl.length producers <> 0 then
      invariant_fail "producer bookkeeping not drained (%d entries)"
        (Hashtbl.length producers);
    if acc_all.count <> !committed_total - !cdp_markers then
      invariant_fail "stage accounting: %d recorded <> %d committed - %d markers"
        acc_all.count !committed_total !cdp_markers;
    (* The Fig. 3 fetch split: StallForI + StallForR/D + Active must
       cover every cycle the fetch engine was live. *)
    if !fetch_live <> !fetch_active + !idle_supply + !idle_backpressure then
      invariant_fail
        "fetch accounting: %d live cycles <> %d active + %d supply-stall + \
         %d backpressure-stall"
        !fetch_live !fetch_active !idle_supply !idle_backpressure
  end;
  (match probe with
  | Some p -> Telemetry.Probe.finish p ~cycles:!now
  | None -> ());

  {
    Stats.cycles = !now;
    committed_total = !committed_total;
    committed_work = !committed_work;
    thumb_committed = !thumb_committed;
    cdp_markers = !cdp_markers;
    critical_count = !critical_count;
    fetch_idle_supply = !idle_supply;
    fetch_idle_backpressure = !idle_backpressure;
    stage_all = acc_to_summary acc_all;
    stage_critical = acc_to_summary acc_crit;
    stage_chain = acc_to_summary acc_chain;
    bpu = Bpu.Predictor.stats bpu;
    l1i = Mem.Hierarchy.l1i_stats hier;
    l1d = Mem.Hierarchy.l1d_stats hier;
    l2 = Mem.Hierarchy.l2_stats hier;
    dram = Mem.Hierarchy.dram_stats hier;
    efetch_predictions = Efetch.predictions efetch;
    efetch_correct = Efetch.correct efetch;
    fetch_bytes = !fbytes_total;
    fetch_groups = !fgroups;
    iopp_misses = Mem.Hierarchy.iopp_misses hier;
    iopp_predictable = Mem.Hierarchy.iopp_predictable hier;
  }
