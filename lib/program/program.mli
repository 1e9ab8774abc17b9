(** Whole static programs: a CFG of basic blocks plus a code layout.

    The layout assigns each block a byte address (blocks of the same
    function are contiguous), which the fetch stage and i-cache observe.
    Compiler passes that change block bodies change the layout, and
    therefore the code footprint — exactly the effect Thumb conversion
    is after. *)

type t
(** Invariant: an instruction uid occurs at most once in a program —
    in one block, at one body position.  Generated programs, fuzzed
    programs and every scheme's compiled output keep it (test-locked
    in [test_prog]); a pass that adds instructions draws fresh uids
    above {!max_uid}.  {!Trace} rests on it: an instruction's earlier
    executions are its block's earlier visits, so the event stream
    counts memory accesses per block.  {!make} does not check it. *)

val make : entry:int -> blocks:Block.t list -> t
(** [make ~entry ~blocks] builds a program.  Raises [Invalid_argument]
    on duplicate block ids, a dangling successor, or a missing entry. *)

val entry : t -> int
val block : t -> int -> Block.t
val blocks : t -> Block.t array
(** Blocks in id order. *)

val num_blocks : t -> int
val block_addr : t -> int -> int
(** Start byte address of a block. *)

val code_base : int
(** Base address of the code segment. *)

val code_size : t -> int
(** Total laid-out code bytes. *)

val instr_count : t -> int
(** Static instruction count. *)

val max_uid : t -> int
(** Largest instruction uid in use (for passes allocating fresh uids);
    -1 if the program has no instructions. *)

val update_blocks : (Block.t -> Block.t) -> int array -> t -> t
(** [update_blocks f ids t] rewrites the blocks named by [ids]
    (ascending; ids outside the program are ignored) and shares every
    other block with [t]; if [f] returns every block physically
    unchanged, the result is [t].  It costs the rewritten blocks plus an
    O(blocks) address shift: the layout and {!max_uid} are carried over
    from [t], and equal {!make}'s on the same blocks.  A compiler pass
    after chain selection rewrites only the blocks its profile database
    names and reads chain tags nowhere else.  Raises [Invalid_argument]
    if [ids] do not ascend, or if [f] altered a block's [id] or
    [term]. *)

val map_blocks : (Block.t -> Block.t) -> t -> t
(** {!update_blocks} over every block. *)

val iter_instrs : (Block.t -> Isa.Instr.t -> unit) -> t -> unit

val find_instr : t -> int -> (Block.t * int) option
(** [find_instr p uid] locates an instruction by uid: its block and index
    within the block body. *)
