(** Trace-driven cycle-level out-of-order core.

    The model implements the Table I machine: a [width]-wide
    fetch/decode/rename/issue/execute/commit pipeline with a 128-entry
    ROB, a decoupling fetch buffer, register-renamed RAW dependences, a
    two-level branch predictor, and the {!Mem.Hierarchy} for both
    instruction and data sides.  Wrong-path work is not simulated; a
    mispredicted branch stalls fetch until it resolves plus a redirect
    penalty, which is the standard trace-driven approximation.

    Special instruction handling:
    - 16-bit (Thumb) instructions occupy half the fetch-group bytes,
      which is how the CritIC transformation buys fetch bandwidth;
    - [Cdp_switch] markers occupy fetch bytes and a decode slot, add
      {!Config.t.cdp_decode_penalty} cycles at decode, and retire there
      without entering the ROB;
    - body control instructions (the Approach-1 switch branches) execute
      on the branch unit and always break the fetch group. *)

module Criticality_table : sig
  (** PC-indexed criticality predictor.

      The conventional hardware scheme (Sec. II-A of the paper): a
      table, looked up at fetch with the PC, remembers which static
      instructions exceeded the fanout threshold on earlier executions
      — "similar to branch predictors".  Drives both the critical-load
      prefetching baseline [18] and the BackendPrio issue policy
      [32, 33].  It is defined here, in the simulator's compilation
      unit, so that the per-retirement [train] is a direct call. *)

  type t

  val create : ?entries:int -> threshold:int -> unit -> t
  (** [entries] defaults to 4096, direct-mapped by [(pc lsr 1) land
      (entries - 1)].  Raises [Invalid_argument] unless [entries] is a
      power of two. *)

  val predict : t -> pc:int -> bool
  (** Whether the instruction at [pc] is predicted critical. *)

  val train : t -> pc:int -> fanout:int -> unit
  (** Record the observed fanout of a completed instruction; a 2-bit
      confidence counter hysteresis avoids flapping on variable
      fanout. *)
end

type commit = {
  commit_seq : int;    (** position in the ROB retirement stream *)
  commit_cycle : int;  (** cycle the instruction retired *)
  event : Prog.Trace.event;
}
(** One ROB retirement, as observed by [?on_commit].  [Cdp_switch]
    markers retire at decode and never enter the ROB, so they do not
    appear in this stream. *)

type source = unit -> Prog.Trace.Stream.cursor
(** A replayable event source.  Without [?hier] the simulator pulls the
    stream twice per run — once for the warm pass and once for
    simulation — so the thunk must yield a fresh cursor over the same
    events each call. *)

val warm : Mem.Hierarchy.t -> Prog.Trace.Stream.cursor -> unit
(** Replay a stream's memory footprint through the hierarchy: every
    event's pc into the i-side and every memory address into the d-side
    ({!Mem.Hierarchy.touch_i}/{!Mem.Hierarchy.touch_d}), reading only
    the cursor's [pc] and [mem_addr] columns.  Touches are fills, so
    they count in the caches' [fills]/[prefetch_fills]; they carry no
    replacement hint and reach neither DRAM nor a prefetcher.  A run of
    fetches from one line with no data access between them is touched
    twice at most: later repeats would hit the line the second touch
    left most recent, in the state it left, and change nothing.  The
    result depends only on the stream and the
    hierarchy's configuration. *)

val run_stream :
  ?hier:Mem.Hierarchy.t ->
  ?checks:bool ->
  ?on_commit:(commit -> unit) ->
  ?probe:Telemetry.Probe.t ->
  ?itemp:int array ->
  Config.t ->
  source ->
  Stats.t
(** Simulate an event stream to completion and report statistics.  Peak
    memory is O(window): in-flight instructions live in a fixed ring of
    slot records sized by fetch queue + decode queue + ROB, recycled in
    stream order, so arbitrarily long streams simulate without ever
    materializing a trace.  Each slot copies the fields it needs out of
    the stream's columns and decodes what the stages read from the
    static instruction (opcode, uid, unit, latency, renamed
    destination, the mask of registers read, Thumb and chain flags)
    into int fields, once per event; every structure that refers to an
    in-flight instruction holds its stream index, never its record.
    The static instruction itself is kept in the slot only when
    [on_commit] or [probe] will read it, and no event record is built
    unless [on_commit] observes one.  The result does not depend on
    which of these observers is attached.

    Memory: [hier] is the hierarchy to simulate on.  It is used as
    given and mutated, and its counters — including any left by an
    earlier warm pass — are the returned cache statistics.  By default
    the simulator creates one for [cfg.mem] and {!warm}s it with the
    stream's footprint first, so measurements reflect steady state
    rather than cold start (the paper samples minutes-old executions).
    A cold run passes [Mem.Hierarchy.create cfg.mem]; a caller that
    simulates one stream under several configurations can warm once and
    pass a {!Mem.Hierarchy.copy} per run, with bit-identical results.
    Raises [Invalid_argument] if [hier] was built for a configuration
    other than [cfg.mem], and [Failure] if the machine deadlocks
    (internal invariant violation).

    [checks] (default false) enables runtime self-verification:
    in-order retirement, monotone per-instruction stage timestamps,
    issue-queue capacity, a ready list that is in age order and holds
    only ready queue entries, no instruction issuing before all of its
    renamed producers have completed, and end-of-run accounting
    identities (every stream event committed; the issue queue, its
    ready list and pending wheel, and the completion calendar drained;
    stage counts = committed − CDP markers; fetch-stall split covers
    every live fetch cycle).  A violation raises [Failure] naming the
    invariant.  The checks read only the simulator's own state: the
    accounting contract between a probe's windows and the stage
    summaries is the tests' to check ([test_telemetry],
    [test_pipeline]).  Used by the differential test harness; costs a
    few percent of runtime.

    [on_commit] observes every ROB retirement in order — the hook the
    oracle differential harness lines up against the golden model's
    commit log.

    [probe] attaches a {!Telemetry.Probe}: it is fed one record per ROB
    retirement (with the exact stage-attribution values the stage
    accumulators sum) and one notification per CDP marker consumed at
    decode; its windows are flushed before the function returns.  The
    probe is purely observational: nothing is read back from it, and
    the returned [Stats.t] is bit-identical with or without one
    attached.

    [itemp] is a per-block temperature table (indexed by
    [Prog.Trace.event.block_id]; 0 hot .. 3 cold) consulted on every
    demand i-fetch line transition and passed to the hierarchy as the
    L1i replacement fill hint — the feedback path of the TRRIP policy
    ({!Mem.Replacement.Trrip}).  Out-of-range ids (and the default
    empty table) yield -1, "unknown".  Policies other than TRRIP
    ignore the hint, so passing a table under the default
    configuration changes nothing. *)
