(* Wire formats.  Field layouts are documented in DESIGN.md §13; the
   numbers here are the one source of truth for byte widths and for
   Thumb-convertibility (Decode mirrors them, test-locked both ways). *)

let op_index = function
  | Opcode.Alu -> Some 0
  | Opcode.Alu_shift -> Some 1
  | Opcode.Mul -> Some 2
  | Opcode.Div -> Some 3
  | Opcode.Load -> Some 4
  | Opcode.Store -> Some 5
  | Opcode.Branch -> Some 6
  | Opcode.Call -> Some 7
  | Opcode.Return -> Some 8
  | Opcode.Fp_add -> Some 9
  | Opcode.Fp_mul -> Some 10
  | Opcode.Fp_div -> Some 11
  | Opcode.Nop -> Some 12
  | Opcode.Cdp_switch -> None

let op_of_index = function
  | 0 -> Some Opcode.Alu
  | 1 -> Some Opcode.Alu_shift
  | 2 -> Some Opcode.Mul
  | 3 -> Some Opcode.Div
  | 4 -> Some Opcode.Load
  | 5 -> Some Opcode.Store
  | 6 -> Some Opcode.Branch
  | 7 -> Some Opcode.Call
  | 8 -> Some Opcode.Return
  | 9 -> Some Opcode.Fp_add
  | 10 -> Some Opcode.Fp_mul
  | 11 -> Some Opcode.Fp_div
  | 12 -> Some Opcode.Nop
  | _ -> None

let cond_bits = function
  | Instr.Eq -> 0x0
  | Instr.Ne -> 0x1
  | Instr.Ge -> 0xA
  | Instr.Lt -> 0xB
  | Instr.Gt -> 0xC
  | Instr.Le -> 0xD
  | Instr.Always -> 0xE

let cond_of_bits = function
  | 0x0 -> Some Instr.Eq
  | 0x1 -> Some Instr.Ne
  | 0xA -> Some Instr.Ge
  | 0xB -> Some Instr.Lt
  | 0xC -> Some Instr.Gt
  | 0xD -> Some Instr.Le
  | 0xE -> Some Instr.Always
  | _ -> None

(* Operand fields are 4 bits; 0xF marks an absent operand.  The 16-bit
   format additionally requires every named register to fit the Thumb
   operand range R0..R10 (11..14 are unrepresentable, 15 is the absence
   marker). *)
let absent = 0xF

(* 16-bit halfword:
     [15:12] opcode (0..12; 0xF = CDP format switch; 13/14 undefined)
     [11:8]  dst   (0..10, 0xF = none)
     [7:4]   src1  (0..10, 0xF = none)
     [3:0]   src2  (0..10, 0xF = none)
   CDP marker: [15:12]=0xF, [11:4]=0, [3:0] = cdp_count - 1 (0..8).
   [pack16] is where the field rules live: it returns the halfword, or
   a negative code naming the first rule broken (-1..-4 below, and
   -(16 + n) for a register Rn above R10).  [encode16] spells a code
   out.  The compiler's convertibility scans call the structural
   [Instr.thumb_convertible] instead, which reads the packed word in
   place; test_isa checks that, on work instructions, it holds exactly
   when [encode16] succeeds. *)
let field16 r =
  let i = Reg.index r in
  if i <= Reg.thumb_limit then i else -(16 + i)

let pack16 (i : Instr.t) =
  let opcode = Instr.opcode i in
  if opcode = Opcode.Cdp_switch then
    let n = Instr.cdp_count i in
    if n >= 1 && n <= 9 then (0xF lsl 12) lor (n - 1) else -1
  else if Instr.is_predicated i then -2
  else
    match op_index opcode with
    | None -> -3
    | Some op -> (
      let dst =
        match Instr.dst i with None -> absent | Some r -> field16 r
      in
      match i.srcs with
      | _ when dst < 0 -> dst
      | _ :: _ :: _ :: _ -> -4
      | srcs ->
        let s1 = match srcs with [] -> absent | a :: _ -> field16 a in
        let s2 = match srcs with _ :: b :: _ -> field16 b | _ -> absent in
        if s1 < 0 then s1
        else if s2 < 0 then s2
        else (op lsl 12) lor (dst lsl 8) lor (s1 lsl 4) lor s2)

let encode16 i =
  match pack16 i with
  | -1 -> Error "CDP marker announces 1..9 following instructions"
  | -2 -> Error "the 16-bit format has no predication"
  | -3 -> Error "opcode class has no 16-bit encoding"
  | -4 -> Error "more than two sources exceed the 16-bit format"
  | h when h < 0 ->
    Error (Printf.sprintf "r%d exceeds the Thumb operand range (r10)" (-h - 16))
  | h -> Ok h

let ( let* ) = Result.bind

(* 32-bit word:
     [31:28] cond (ARM nibble, {!cond_bits})
     [27:24] opcode (0..12; 13..15 undefined)
     [23:21] source count (0..4)
     [20]    has-dst
     [19:16] dst  (0 when absent)
     [15:12] src1  [11:8] src2  [7:4] src3  [3:0] src4 (0 when absent) *)
let encode32 (i : Instr.t) =
  match op_index (Instr.opcode i) with
  | None -> Error "the CDP marker is 16-bit only"
  | Some op ->
    let nsrcs = List.length i.srcs in
    if nsrcs > 4 then Error "more than four sources exceed the 32-bit format"
    else begin
      let srcs = Array.make 4 0 in
      List.iteri (fun k r -> srcs.(k) <- Reg.index r) i.srcs;
      let hd, dst =
        match Instr.dst i with None -> (0, 0) | Some r -> (1, Reg.index r)
      in
      Ok
        ((cond_bits (Instr.cond i) lsl 28)
        lor (op lsl 24)
        lor (nsrcs lsl 21)
        lor (hd lsl 20)
        lor (dst lsl 16)
        lor (srcs.(0) lsl 12)
        lor (srcs.(1) lsl 8)
        lor (srcs.(2) lsl 4)
        lor srcs.(3))
    end

let le_bytes n width =
  String.init width (fun k -> Char.chr ((n lsr (8 * k)) land 0xFF))

let encode (i : Instr.t) =
  match Instr.encoding i with
  | Instr.Fused -> Ok ""
  | Instr.Thumb16 ->
    let* h = encode16 i in
    Ok (le_bytes h 2)
  | Instr.Arm32 ->
    let* w = encode32 i in
    Ok (le_bytes w 4)
