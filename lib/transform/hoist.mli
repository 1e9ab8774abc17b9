(** Chain hoisting: moving a CritIC's member instructions so they sit
    back-to-back at the position of the first member.

    Hoisting is only performed when provably safe.  A member moving up
    past a skipped instruction must not: read a register the skipped
    instruction writes (RAW), write a register it reads (WAR), or write
    a register it writes (WAW); and a member memory access never moves
    across a skipped memory access to the same region.  The IC property
    guarantees the absence of in-chain RAW violations dynamically, but
    the checker re-establishes all of it statically and rejects the site
    otherwise. *)

val legal : Prog.Block.t -> int list -> bool
(** [legal block member_indices] checks whether the members (increasing
    body indices) can be hoisted to the first member's position. *)

val legal_prefix : Isa.Instr.t array -> int array -> int
(** The number of leading members of [idx] that can be hoisted
    together: {!legal} holds of the first [k] exactly when
    [2 <= k <= legal_prefix body idx]. *)

val apply : Prog.Block.t -> int list -> Prog.Block.t
(** Rewrite the block body with the members contiguous at the hoist
    point, preserving the relative order of everything else; only the
    [first, last] span of the members changes.  Raises
    [Invalid_argument] if [legal] is false or indices are out of
    range/unsorted. *)

val pass : Pass.t
(** The pipeline form: hoist every chain tagged by {!Chain_select},
    highest chain first within each block.  Report field owned:
    [instrs_hoisted] (total chain members moved, heads included). *)
