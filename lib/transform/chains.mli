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
    {!Chain_select} accepts a site only below every site it accepted
    before in the block, so chains occupy disjoint, non-interleaved
    index ranges — no pass moves a member out of its chain's range —
    and a chain is a maximal stretch of tags with one [chain_id].  The
    order is also ascending [chain_id] order reversed per block. *)

val rewrite_tagged :
  (Isa.Instr.t -> Isa.Instr.chain_tag -> Isa.Instr.t) ->
  Prog.Block.t ->
  Prog.Block.t
(** [rewrite_tagged f block] replaces every tagged member [ins] by
    [f ins tag], in body order; if every member comes back physically
    unchanged, the block is returned as it is. *)

val mark_runs :
  (int list -> (int * Isa.Instr.t) list) -> Prog.Block.t -> Prog.Block.t
(** [mark_runs f block] inserts switch markers around every maximal run
    of consecutive member positions: [f run] returns the markers for
    one run, each paired with the body position it goes in front of
    ([length body] appends).  [f] is called chain by chain from the
    highest — the order in which the monolithic pass allocated fresh
    uids, which the bit-identicality contract fixes — and runs
    ascending within a chain.  After {!Hoist} a chain is one run;
    without hoisting (the narrow-only hybrid) members may be scattered
    and each run gets its own markers ({!Cdp_insert},
    {!Branch_switch}).  A block with no chain is returned as it is. *)

val chunk : int -> 'a list -> 'a list list
(** [chunk span run] splits a run (of body positions, or of
    instructions) into groups of at most [span], preserving order —
    CDP's 9-instruction announcement window. *)
