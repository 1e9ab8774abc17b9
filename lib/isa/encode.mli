(** Instruction encoders: the wire formats behind the [encoding] tags.

    Two concrete formats are defined (DESIGN.md §13):

    - a Thumb-like 16-bit halfword — 4-bit opcode, three 4-bit operand
      fields restricted to R0..R10, no predication, plus the CDP
      format-switch marker occupying the [0xF] opcode slot;
    - an ARM-like 32-bit word — 4-bit ARM condition code, 4-bit opcode,
      explicit operand count, and full R0..R15 operand fields.

    The encoder is the single source of truth for byte widths:
    [Instr.size_bytes] equals the encoded length whenever {!encode}
    succeeds (test-locked).  Thumb-convertibility is
    [Instr.thumb_convertible], a structural copy of {!encode16}'s field
    rules that the compiler passes call; on a work instruction it holds
    exactly when {!encode16} succeeds (qcheck-locked).  The only
    instructions the encoder rejects while their tag claims a width are the *hypothetical*
    re-encodings used by upper-bound studies ([Instr.force_thumb] under
    CritIC.Ideal, [Instr.fuse] under the macro study); those keep their
    claimed width but have no wire bytes by construction. *)

val op_index : Opcode.t -> int option
(** Stable 4-bit opcode number shared by both formats: Alu=0, Alu_shift=1,
    Mul=2, Div=3, Load=4, Store=5, Branch=6, Call=7, Return=8, Fp_add=9,
    Fp_mul=10, Fp_div=11, Nop=12.  [Cdp_switch] has no work-class number
    (it owns the 16-bit [0xF] format) and maps to [None]. *)

val op_of_index : int -> Opcode.t option
(** Inverse of {!op_index}; [None] for 13, 14, 15 and out-of-range. *)

val cond_bits : Instr.cond -> int
(** ARM condition-code nibble: EQ=0x0, NE=0x1, GE=0xA, LT=0xB, GT=0xC,
    LE=0xD, Always=0xE (AL). *)

val cond_of_bits : int -> Instr.cond option

val encode16 : Instr.t -> (int, string) result
(** Pack into the 16-bit halfword (returned in [0, 0xFFFF]).  Fails —
    naming the violated constraint — when the instruction is predicated,
    names a register above R10, has more than two sources, or the opcode
    class has no 16-bit encoding.  A CDP marker packs into the [0xF]
    format with [cdp_count - 1] in the low nibble. *)

val encode32 : Instr.t -> (int, string) result
(** Pack into the 32-bit word (returned in [0, 0xFFFFFFFF]).  Fails for
    [Cdp_switch] (the marker is 16-bit only) and for more than four
    sources. *)

val encode : Instr.t -> (string, string) result
(** Wire bytes per the instruction's [encoding] tag, little-endian:
    2 bytes for [Thumb16], 4 for [Arm32], [""] for [Fused] (a fused
    constituent rides in the preceding instruction's word).  Fails only
    for hypothetical re-encodings whose tag a real encoder cannot honour
    (e.g. a [force_thumb]-ed predicated instruction). *)
