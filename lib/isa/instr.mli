(** Static instructions.

    An instruction carries exactly what the simulator, the DFG analysis
    and the compiler passes need: opcode class, register operands,
    predication, encoding format, and optional memory / chain metadata.
    Semantics (actual values) are never interpreted. *)

type encoding =
  | Arm32   (** contemporary 32-bit ARM format *)
  | Thumb16 (** concise 16-bit Thumb format *)
  | Fused   (** hypothetical macro-instruction constituent: fetched for
                free as part of the preceding instruction's word.  Used
                only by the ISA-extension upper-bound study (the design
                the paper rejects in Sec. III-B because the number of
                unique CritIC sequences makes it impractical) *)

type cond =
  | Always (** not predicated *)
  | Eq | Ne | Gt | Lt | Ge | Le
      (** predicated execution — unavailable in the 16-bit format *)

type mem_signature = {
  region : int;       (** data region identifier; distinct regions never alias *)
  stride : int;       (** bytes between successive dynamic accesses *)
  working_set : int;  (** bytes after which the access stream wraps *)
  randomness : float; (** probability a dynamic access jumps to a random
                          offset inside the working set instead of striding *)
}
(** Statistical description of an instruction's dynamic address stream;
    the trace expander turns it into concrete addresses. *)

type chain_tag = {
  chain_id : int; (** identity of the CritIC this instruction belongs to *)
  pos : int;      (** position within the chain, 0-based *)
  len : int;      (** chain length *)
}
(** Attached by the CritIC compiler pass to hoisted chain members (and to
    the CDP marker); drives chain-aware statistics and issue priority. *)

type t = private {
  uid : int;                    (** program-unique static identifier *)
  word : int;
      (** opcode, predication, encoding, destination and CDP count,
          packed (layout below); read them with {!opcode}, {!cond},
          {!encoding}, {!dst} and {!cdp_count} *)
  srcs : Reg.t list;
  mem : mem_signature option;   (** only for [Load]/[Store] *)
  chain : chain_tag option;
}
(** Six words with the header.  {!make}, {!cdp}, {!with_encoding},
    {!force_thumb}, {!fuse}, {!with_chain} and {!with_uid} are the only
    writers, so equal fields give equal words and [=] on instructions
    means equal fields. *)

val opcode : t -> Opcode.t
val cond : t -> cond
val encoding : t -> encoding

val dst : t -> Reg.t option
(** Every instruction with destination [r] returns the same [Some r]. *)

val cdp_count : t -> int
(** For [Cdp_switch]: how many following instructions are 16-bit
    ([l+1] ≤ 9); [0] otherwise. *)

(** {2 The packed word}

    From bit 0, [word] holds {!Opcode.to_index} of the opcode (4 bits),
    the condition's position in the declaration of {!cond} (3 bits),
    {!encoding_index} of the encoding (2 bits), the destination's
    register index plus one, [0] for none (5 bits), and [cdp_count]
    (the remaining bits, signed).  The readers above are calls from
    other modules; code that decodes every dynamic event (the stream
    refill, the core's decode) reads the fields it needs with these
    constants: [(word lsr s) land m]. *)

val opcode_shift : int
val opcode_mask : int
val encoding_shift : int
val encoding_mask : int
val dst_shift : int
val dst_mask : int

val encoding_index : encoding -> int
(** [Arm32] 0, [Thumb16] 1, [Fused] 2. *)

val encoding_bytes : encoding -> int
(** 4 for [Arm32], 2 for [Thumb16], 0 for [Fused]. *)

val make :
  uid:int ->
  opcode:Opcode.t ->
  ?dst:Reg.t ->
  ?srcs:Reg.t list ->
  ?cond:cond ->
  ?encoding:encoding ->
  ?mem:mem_signature ->
  ?chain:chain_tag ->
  ?cdp_count:int ->
  unit ->
  t
(** Smart constructor; defaults: no operands, [Always], [Arm32], no
    memory signature, no chain, [cdp_count = 0]. Raises
    [Invalid_argument] if a memory signature is attached to a non-memory
    opcode, a Thumb16 encoding violates {!thumb_convertible}, or
    [cdp_count] lies outside the packed field's
    \[-2{^48}, 2{^48}) range.

    Source lists are shared: every instruction with the same list of up
    to two sources holds the same list (from tables built once and never
    written).  Compare operands with structural equality only; whether
    two instructions' operands are one value in memory means nothing. *)

val size_bytes : t -> int
(** {!encoding_bytes} of the encoding — the width claimed by the tag.
    Equal to the length of [Encode.encode] whenever that encoder
    succeeds (test-locked); only the hypothetical re-encodings of the
    upper-bound studies keep a claimed width with no real wire bytes. *)

val is_predicated : t -> bool

val thumb_convertible : t -> bool
(** The paper's conversion rule: an instruction can be represented in the
    16-bit format iff it is not predicated, every register operand is
    addressable by the Thumb operand fields (≤ R10), it has at most two
    sources (the format has two source fields), and the opcode class has
    a Thumb encoding.  The compiler passes and the profiler call this
    predicate.  It is a structural copy of [Encode.encode16]'s field
    rules, not a call into the encoder; on a work instruction it holds
    exactly when [Encode.encode16] succeeds (qcheck-locked).  The CDP
    marker, which owns its own 16-bit format, is never convertible. *)

val with_encoding : encoding -> t -> t
(** Re-encode; raises [Invalid_argument] when converting a
    non-convertible instruction to [Thumb16]. *)

val force_thumb : t -> t
(** Re-encode to [Thumb16] bypassing {!thumb_convertible} — used only by
    the hypothetical CritIC.Ideal configuration (Sec. IV-E), which
    assumes every chain instruction had a 16-bit encoding.  Dependence
    structure and semantics metadata are untouched. *)

val fuse : t -> t
(** Re-encode to [Fused] (zero fetch bytes) — used only by the
    macro-instruction upper-bound study. *)

val with_chain : chain_tag option -> t -> t
val with_uid : int -> t -> t

val regs_read : t -> Reg.t list
val regs_written : t -> Reg.t list

val cdp : uid:int -> following:int -> t
(** [cdp ~uid ~following] is the format-switch marker announcing
    [following] 16-bit instructions.  [following] must be in [1, 9]
    (a 3-bit argument encodes [l], and [l + 1] instructions follow). *)

val pp : Format.formatter -> t -> unit

val structural_key : t -> string
(** Opcode + operands + predication, ignoring [uid] and metadata — the
    paper keys unique CritIC sequences on "opcode+operands of all
    constituent instructions". *)
