(** Reading chain tags back out of a block — the shared view every
    post-selection pass ({!Hoist}, {!Narrow_convert}, {!Cdp_insert},
    {!Branch_switch}, {!Macro_fuse}) uses to find its work.

    Chain membership is carried on the instructions themselves
    ({!Isa.Instr.chain_tag}, placed by {!Chain_select}), so this module
    is pure bookkeeping: group tagged body positions by chain id. *)

type t = {
  id : int;  (** the tag's [chain_id] *)
  len : int;  (** chain length as recorded in the tag *)
  positions : int list;  (** member body indices, ascending *)
}

val in_block : Prog.Block.t -> t list
(** Chains present in a block, ordered by ascending first position.
    Sites are index-range disjoint within a block, so this is also
    ascending [chain_id] order reversed per block — see
    {!Chain_select}. *)

val descending : t list -> t list
(** Reverse of {!in_block}: descending first position — the order in
    which the rewriting passes must process chains so that edits at
    higher indices never disturb the positions of chains below them
    (and the order in which the monolithic pass allocated fresh uids,
    which the bit-identicality contract fixes). *)

val runs : t -> int list list
(** Maximal runs of consecutive member positions, ascending.  After
    {!Hoist} a chain is one run; without hoisting (the narrow-only
    hybrid) members may be scattered and each run gets its own switch
    markers. *)

val splice : Isa.Instr.t array -> (int * Isa.Instr.t) list -> Isa.Instr.t array
(** [splice body inserts] places each instruction *before* the given
    body position (position [length body] appends), with the insert
    list sorted by ascending position; same-position inserts keep list
    order. *)

val chunk : int -> 'a list -> 'a list list
(** [chunk span run] splits a run (of body positions, or of
    instructions) into groups of at most [span], preserving order —
    CDP's 9-instruction announcement window. *)
