type event = {
  seq : int;
  pc : int;
  size : int;
  instr : Isa.Instr.t;
  block_id : int;
  body_index : int;
  func : int;
  mem_addr : int;
  is_cond_branch : bool;
  taken : bool;
  next_pc : int;
  fetch_break : bool;
}

type t = event array

let control_uid_base = 1_000_000_000
let data_base = 0x4000_0000
let region_span = 0x0100_0000

(* Order-independent per-access randomness: every (seed, uid, count)
   triple hashes to its own one-shot SplitMix64 generator, so a pass
   that reorders instructions inside a block leaves every other address
   stream untouched.

   This is the per-access hot path of event generation, so the draws of
   [Util.Rng.create]/[chance]/[int] are open-coded in [mem_address]:
   straight-line Int64 locals stay unboxed, where the generic generator
   pays a boxed mutable state cell and a write barrier per draw.  The
   value sequence is bit-identical to the reference expression
     let rng =
       Util.Rng.create
         ((seed * 0x9E3779B1) lxor (uid * 0x85EBCA77)
          lxor (count * 0xC2B2AE3D))
     in
     if m.randomness > 0.0 && Util.Rng.chance rng m.randomness then
       Util.Rng.int rng slots
     else count mod slots
   (golden-digest tested); any change here must preserve it. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Int-specialized max: Stdlib.max compares through compare_val. *)
let[@inline] imax (a : int) b = if a >= b then a else b

let mem_address ~seed ~uid ~count (m : Isa.Instr.mem_signature) =
  let base = data_base + (m.region * region_span) in
  let ws = imax m.stride m.working_set in
  let slots = imax 1 (ws / imax 1 m.stride) in
  let p = m.randomness in
  let slot =
    if p <= 0.0 then count mod slots
    else begin
      let s1 =
        Int64.add
          (Int64.of_int
             ((seed * 0x9E3779B1) lxor (uid * 0x85EBCA77)
             lxor (count * 0xC2B2AE3D)))
          golden_gamma
      in
      if p >= 1.0 then
        (* chance is certain and draws nothing; int takes the first
           output *)
        Int64.to_int (Int64.shift_right_logical (mix64 s1) 2) mod slots
      else
        let u =
          Int64.to_float (Int64.shift_right_logical (mix64 s1) 11)
          /. 9007199254740992.0 *. 1.0
        in
        if u < p then
          let s2 = Int64.add s1 golden_gamma in
          Int64.to_int (Int64.shift_right_logical (mix64 s2) 2) mod slots
        else count mod slots
    end
  in
  base + (slot * m.stride)

let length_of_path program path =
  Array.fold_left
    (fun acc block_id ->
      let b = Program.block program block_id in
      acc + Array.length b.Block.body
      + (match b.Block.term with Block.Fallthrough _ -> 0 | _ -> 1))
    0 path

(* The refill decodes each event's instruction from its packed word
   with [Isa.Instr]'s layout constants and these tables, not through
   the readers, which are calls from here. *)
let[@inline] encoding_field w =
  (w lsr Isa.Instr.encoding_shift) land Isa.Instr.encoding_mask

let[@inline] opcode_field w =
  (w lsr Isa.Instr.opcode_shift) land Isa.Instr.opcode_mask

let width_of_encoding =
  let a = Array.make (Isa.Instr.encoding_mask + 1) 0 in
  List.iter
    (fun e -> a.(Isa.Instr.encoding_index e) <- Isa.Instr.encoding_bytes e)
    Isa.Instr.[ Arm32; Thumb16; Fused ];
  a

let control_of_opcode =
  Array.init Isa.Opcode.count (fun k ->
      Isa.Opcode.is_control (Isa.Opcode.of_index k))

let dummy_instr = Isa.Instr.make ~uid:(-1) ~opcode:Isa.Opcode.Nop ()

let dummy_event =
  {
    seq = -1;
    pc = 0;
    size = Isa.Instr.size_bytes dummy_instr;
    instr = dummy_instr;
    block_id = -1;
    body_index = -1;
    func = -1;
    mem_addr = -1;
    is_cond_branch = false;
    taken = false;
    next_pc = 0;
    fetch_break = false;
  }

module Stream = struct
  (* The cursor delivers events out of columns refilled many block
     visits at a time.  Batching is what makes pulls cheap: events inside
     a visit are address-contiguous, so every in-visit [next_pc] is just
     [pc + size], and only a visit-final event needs to know where the
     stream continues — the block address of the next visit that yields
     an event, computable without generating anything.  Each event is
     written exactly once, lookahead-free, as one int per column (plus a
     pointer to its static instruction); no record is built unless a
     record adapter asks for one. *)
  type cursor = {
    mutable seq : int array;
    mutable pc : int array;
    mutable size : int array;
    mutable mem_addr : int array;
    mutable next_pc : int array;
    mutable flags : int array;
    mutable block_id : int array;
    mutable body_index : int array;
    mutable func : int array;
    mutable instr : Isa.Instr.t array;
    mutable pos : int;
    mutable lim : int;
    refill : cursor -> unit;
        (* produce the next batch; leaves pos = lim = 0 at end of
           stream *)
  }

  let flag_cond = 1
  let flag_taken = 2
  let flag_break = 4

  (* A refill stops expanding visits once the batch holds this many
     events, so a refill's fixed cost is spread over at least this many
     pulls. *)
  let batch_events = 256

  let empty_cursor refill =
    {
      seq = [||];
      pc = [||];
      size = [||];
      mem_addr = [||];
      next_pc = [||];
      flags = [||];
      block_id = [||];
      body_index = [||];
      func = [||];
      instr = [||];
      pos = 0;
      lim = 0;
      refill;
    }

  let grow a n x =
    let b = Array.make n x in
    Array.blit a 0 b 0 (Array.length a);
    b

  (* Grow every column to hold at least [n] events, keeping its
     contents. *)
  let reserve c n =
    if Array.length c.pc < n then begin
      let n = max n (2 * Array.length c.pc) in
      c.seq <- grow c.seq n 0;
      c.pc <- grow c.pc n 0;
      c.size <- grow c.size n 0;
      c.mem_addr <- grow c.mem_addr n 0;
      c.next_pc <- grow c.next_pc n 0;
      c.flags <- grow c.flags n 0;
      c.block_id <- grow c.block_id n 0;
      c.body_index <- grow c.body_index n 0;
      c.func <- grow c.func n 0;
      c.instr <- grow c.instr n dummy_instr
    end

  let of_program program ~seed path =
    (* Visits so far per block.  A memory instruction's access count is
       its number of earlier executions, and since a uid occurs at most
       once in a program (see {!Program}), those are exactly its block's
       earlier visits: the counter is per block, not per uid. *)
    let visits = Array.make (Program.num_blocks program) 0 in
    (* Synthetic terminators, built on a block's first visit and shared
       by every later one. *)
    let terms = Array.make (Program.num_blocks program) dummy_instr in
    let npath = Array.length path in
    let visit = ref 0 in
    let seq = ref 0 in
    (* pc of the first event produced at or after visit [v], or -1 at
       end of path: the block's address — for an empty body the first
       event is the terminator, which sits at the block address.  Visits
       yielding no event (empty body, fallthrough) are skipped. *)
    let rec next_start v =
      if v >= npath then -1
      else
        let b = Program.block program path.(v) in
        if
          Array.length b.Block.body > 0
          || (match b.Block.term with Block.Fallthrough _ -> false | _ -> true)
        then Program.block_addr program path.(v)
        else next_start (v + 1)
    in
    let refill c =
      let n = ref 0 in
      while !n < batch_events && !visit < npath do
        let v = !visit in
        let block_id = path.(v) in
        let b = Program.block program block_id in
        let body = b.Block.body in
        let nbody = Array.length body in
        let has_term =
          match b.Block.term with Block.Fallthrough _ -> false | _ -> true
        in
        let nevents = if has_term then nbody + 1 else nbody in
        let count = visits.(block_id) in
        visits.(block_id) <- count + 1;
        incr visit;
        if nevents > 0 then begin
          let base = !n in
          reserve c (base + nevents);
          (* The visit-final event's successor pc.  At end of stream the
             expander's convention is the fall-through address. *)
          let continue_pc = next_start !visit in
          let func = b.Block.func in
          let pc = ref (Program.block_addr program block_id) in
          for i = 0 to nbody - 1 do
            let ins = body.(i) in
            let w = ins.Isa.Instr.word in
            let size = width_of_encoding.(encoding_field w) in
            let k = base + i in
            c.mem_addr.(k) <-
              (match ins.Isa.Instr.mem with
              | None -> -1
              | Some m -> mem_address ~seed ~uid:ins.uid ~count m);
            (* Body control instructions (Approach-1 switch branches) are
               unconditional and always taken. *)
            let is_control = control_of_opcode.(opcode_field w) in
            let next_pc =
              if i < nevents - 1 || continue_pc < 0 then !pc + size
              else continue_pc
            in
            c.seq.(k) <- !seq;
            c.pc.(k) <- !pc;
            c.size.(k) <- size;
            c.instr.(k) <- ins;
            c.block_id.(k) <- block_id;
            c.body_index.(k) <- i;
            c.func.(k) <- func;
            c.next_pc.(k) <- next_pc;
            c.flags.(k) <-
              (if is_control then flag_taken lor flag_break
               else if next_pc <> !pc + size then flag_break
               else 0);
            incr seq;
            pc := !pc + size
          done;
          if has_term then begin
            let ins =
              let t = terms.(block_id) in
              if t != dummy_instr then t
              else
                let t =
                  Isa.Instr.make ~uid:(control_uid_base + block_id)
                    ~opcode:
                      (match b.Block.term with
                      | Block.Call _ -> Isa.Opcode.Call
                      | Block.Return -> Isa.Opcode.Return
                      | Block.Cond_branch _ | Block.Jump _
                      | Block.Fallthrough _ ->
                        Isa.Opcode.Branch)
                    ()
                in
                terms.(block_id) <- t;
                t
            in
            let tsize =
              width_of_encoding.(encoding_field ins.Isa.Instr.word)
            in
            let cond, taken =
              match b.Block.term with
              | Block.Fallthrough _ -> (false, false)
              | Block.Jump _ | Block.Call _ | Block.Return -> (false, true)
              | Block.Cond_branch { taken; _ } ->
                (true, v + 1 < npath && path.(v + 1) = taken)
            in
            let next_pc =
              if continue_pc < 0 then !pc + tsize else continue_pc
            in
            let k = base + nbody in
            c.seq.(k) <- !seq;
            c.pc.(k) <- !pc;
            c.size.(k) <- tsize;
            c.instr.(k) <- ins;
            c.block_id.(k) <- block_id;
            c.body_index.(k) <- -1;
            c.func.(k) <- func;
            c.mem_addr.(k) <- -1;
            c.next_pc.(k) <- next_pc;
            c.flags.(k) <-
              ((if cond then flag_cond else 0)
              lor (if taken then flag_taken else 0)
              lor
              if taken || next_pc <> !pc + tsize then flag_break else 0);
            incr seq
          end;
          n := base + nevents
        end
      done;
      c.pos <- 0;
      c.lim <- !n
    in
    let c = empty_cursor refill in
    reserve c (2 * batch_events);
    refill c;
    c

  (* Column index of the first unconsumed event, refilling a drained
     batch; -1 at end of stream. *)
  let current c =
    if c.pos < c.lim then c.pos
    else if c.lim = 0 then -1
    else begin
      c.refill c;
      if c.pos < c.lim then c.pos else -1
    end

  let take c =
    let i = current c in
    if i >= 0 then c.pos <- c.lim;
    i

  let record c i =
    let f = c.flags.(i) in
    {
      seq = c.seq.(i);
      pc = c.pc.(i);
      size = c.size.(i);
      instr = c.instr.(i);
      block_id = c.block_id.(i);
      body_index = c.body_index.(i);
      func = c.func.(i);
      mem_addr = c.mem_addr.(i);
      is_cond_branch = f land flag_cond <> 0;
      taken = f land flag_taken <> 0;
      next_pc = c.next_pc.(i);
      fetch_break = f land flag_break <> 0;
    }

  let next c =
    let i = current c in
    if i < 0 then None
    else begin
      c.pos <- i + 1;
      Some (record c i)
    end

  let rec iter f c =
    let i = current c in
    if i >= 0 then begin
      c.pos <- i + 1;
      f (record c i);
      iter f c
    end

  let fold f init c =
    let acc = ref init in
    iter (fun e -> acc := f !acc e) c;
    !acc
end

let expand program ~seed path =
  let n = length_of_path program path in
  if n = 0 then [||]
  else begin
    let arr = Array.make n dummy_event in
    let i = ref 0 in
    Stream.iter
      (fun e ->
        arr.(!i) <- e;
        incr i)
      (Stream.of_program program ~seed path);
    arr
  end

let is_work (e : event) =
  let op = Isa.Instr.opcode e.instr in
  op <> Isa.Opcode.Cdp_switch
  && (e.instr.uid >= control_uid_base || not (Isa.Opcode.is_control op))

let work_count t =
  Array.fold_left (fun acc e -> if is_work e then acc + 1 else acc) 0 t
