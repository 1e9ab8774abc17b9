(** Offline profiling: event stream → CritIC database.

    This mirrors the paper's Sec. III-A2 flow (QEMU trace → GEM5 fanout
    tracking → Spark aggregation): the dynamic stream is cut into
    analysis windows, each window's DFG is built, independently
    schedulable ICs are enumerated, and chains whose average fanout per
    instruction exceeds the threshold are aggregated by their static
    identity into the CritIC database.  Aggregation here is an in-memory
    hash table — the laptop-scale equivalent of the paper's distributed
    PairRDD sort. *)

val profile_stream :
  ?window:int ->
  ?threshold:float ->
  ?fraction:float ->
  ?max_paths_per_window:int ->
  ?metric:Metric.t ->
  total_events:int ->
  Prog.Trace.Stream.cursor ->
  Critic_db.t
(** [profile_stream ~total_events cursor] analyses the stream and
    returns the CritIC database, in O(window) memory: events are staged
    one analysis window at a time in a reused buffer, so the trace is
    never materialized.  [total_events] is the stream's total event
    count (see {!Prog.Trace.length_of_path}), needed up front to
    resolve [fraction].

    - [window]: analysis window in dynamic instructions (default 512);
    - [threshold]: minimum average fanout per instruction for a chain to
      be a CritIC.  The paper uses 8 with fanouts measured over GEM5's
      128-entry ROB on real app traces; our synthetic streams have a
      compressed fanout scale, so the default (4) is chosen to select
      the same population — the top decile of instructions by fanout
      (see DESIGN.md);
    - [fraction]: profile only the leading fraction of the trace — the
      partial-profiling axis of Fig. 12b (default 1.0);
    - [max_paths_per_window]: IC enumeration budget per window;
    - [metric]: the chain-criticality scoring function (default the
      paper's average fanout per instruction; see {!Metric}).

    Candidate chains are the single-block, single-visit segments of the
    enumerated ICs (the hoisting compiler pass works within a basic
    block), at most 9 instructions each — one CDP covers at most 9; a
    longer chain becomes several consecutive sites.  The length/spread
    histograms are computed over unrestricted maximal ICs, which is
    what Fig. 5a reports.  An instruction with a fanout of at least 4
    counts as high-fanout for the Fig. 1b gap histogram, matching the
    default [threshold]. *)
