(** Dynamic instruction traces.

    Expanding a block path over a program yields the event stream the
    pipeline simulates: per-instruction program counters, concrete memory
    addresses, and control-transfer outcomes.  Expansion is fully
    deterministic in (program, path, seed); memory-address randomness is
    keyed on (seed, instruction uid, access count) so that compiler
    passes which reorder instructions inside a block do not perturb any
    other instruction's address stream. *)

type event = {
  seq : int;                (** position in the dynamic stream *)
  pc : int;                 (** byte address of the instruction *)
  size : int;               (** encoded size: 4 or 2 bytes *)
  instr : Isa.Instr.t;
  block_id : int;
  body_index : int;         (** index within the block body; -1 for the
                                synthetic terminator *)
  func : int;
  mem_addr : int;           (** concrete byte address; -1 for non-memory *)
  is_cond_branch : bool;    (** consults the direction predictor *)
  taken : bool;             (** actual control outcome *)
  next_pc : int;            (** address of the next dynamic instruction *)
  fetch_break : bool;       (** a taken transfer ends the fetch group *)
}

type t = event array

module Stream : sig
  (** Pull-based event cursor: the one source of the dynamic stream.
      {!of_program} is its only constructor, and everything that reads
      events — the simulator, the profiler, [Heat], characterization,
      Fig. 3's fanout count — pulls a cursor; {!expand} materializes
      the same stream.  A cursor takes O(batch) space plus two tables
      of one entry per block: a visit counter and the block's shared
      terminator instruction.  Nothing in a cursor is sized by the
      program's uids.  A memory instruction's access count (the
      [count] its address is keyed on) is its block's visit count at
      the visit, which equals its number of earlier executions because
      a uid occurs at most once in a program ({!Program.t}).

      Events live in columns.  One refill expands block visits until
      the batch holds at least 256 events (or the path ends), writing
      one int per column per event and a pointer to the event's static
      instruction; no record is built.  Batches differ in length, so a
      reader must take each batch's limit afresh.  The simulator reads
      the columns directly through {!take}.  The record adapters
      ({!next}, {!iter}, {!fold}) serve the profiler, [Heat],
      characterization, {!expand} and the tests: each builds a fresh
      {!event} record per delivered event, so they allocate. *)

  type cursor = private {
    mutable seq : int array;
    mutable pc : int array;
    mutable size : int array;
    mutable mem_addr : int array;  (** -1 for non-memory *)
    mutable next_pc : int array;
    mutable flags : int array;
        (** {!flag_cond} [lor] {!flag_taken} [lor] {!flag_break} *)
    mutable block_id : int array;
    mutable body_index : int array;
    mutable func : int array;
    mutable instr : Isa.Instr.t array;
    mutable pos : int;  (** column index of the next unconsumed event *)
    mutable lim : int;  (** exclusive end of the current batch *)
    refill : cursor -> unit;
  }
  (** The column at index [i] holds one field of one event, for
      [pos <= i < lim].  A refill overwrites the columns, so an index is
      valid only until the next call that moves the cursor. *)

  val flag_cond : int
  val flag_taken : int
  val flag_break : int
  (** Bits of the [flags] column: [is_cond_branch], [taken] and
      [fetch_break]. *)

  val of_program : Program.t -> seed:int -> Walk.path -> cursor
  (** Expand lazily over [path].  Batching resolves each visit's
      [next_pc]/[fetch_break] without lookahead events. *)

  val take : cursor -> int
  (** Claim every unconsumed event of the current batch, refilling
      first when it is drained.  Returns the column index of the first
      claimed event — the claim runs to the cursor's [lim] as it stands
      after the call — or [-1] at end of stream.  Allocation-free: the
      simulator's pull. *)

  val next : cursor -> event option
  (** Consume and return the next event, or [None] at end of stream. *)

  val iter : (event -> unit) -> cursor -> unit
  val fold : ('a -> event -> 'a) -> 'a -> cursor -> 'a
end

val expand : Program.t -> seed:int -> Walk.path -> t
(** Expand a block path into the dynamic event stream.  Synthetic
    control-transfer instructions are appended per block terminator
    (conditional branch, jump, call, return); [Fallthrough] appends
    nothing.  Implemented by materializing {!Stream.of_program}, so the
    two never diverge; the oracle's expected retirement order, the DFG
    tests and the chain explorer read it. *)

val length_of_path : Program.t -> Walk.path -> int
(** Number of events {!expand} would produce for [path] — body
    instructions plus one synthetic terminator per non-fallthrough
    block visit — computed in O(path) without expanding. *)

val is_work : event -> bool
(** True for useful-work events: everything except CDP markers and the
    switch branches a transform inserts into block bodies.  Synthetic
    block terminators count as work. *)

val work_count : t -> int
(** Number of useful-work events ({!is_work}). *)

val mem_address :
  seed:int -> uid:int -> count:int -> Isa.Instr.mem_signature -> int
(** [mem_address ~seed ~uid ~count m] is the byte address of the
    [count]-th (from 0) execution of memory instruction [uid] with
    signature [m]: keyed on (seed, uid, count) alone, so reordering a
    block leaves every other instruction's stream unchanged
    (digest-pinned). *)

val control_uid_base : int
(** Synthetic terminator instructions get uid
    [control_uid_base + block_id]; the range never collides with body
    instruction uids (which are non-negative and far smaller). *)
