(** End-to-end runs: workload → profile → transform → simulate.

    An {!app_context} packages everything derived once per application:
    the generated program, the control-flow path (fixed across schemes,
    so every scheme replays identical work) and the CritIC database.
    Traces are never materialized on this path — profiling and
    simulation both pull the event stream ({!Prog.Trace.Stream}) and run
    in O(window) memory, so the instruction budget can grow without the
    context's footprint following it.  {!stats} evaluates any scheme on
    any machine configuration. *)

type scheme_cache
(** Derived per-scheme state: one slot holding the last transformed
    program, sized for the hot access pattern — one scheme re-simulated
    across machine configurations, interleaved with the baseline, which
    needs no slot; the TRRIP heat tables; and the warmed memory
    hierarchies of the most recently simulated scheme, one per
    [Config.mem].  Mutex-protected so contexts can be shared across
    domains by the parallel experiment harness. *)

type app_context = {
  profile : Workload.Profile.t;
  program : Prog.Program.t;
  seed : int;
  path : Prog.Walk.path;
  event_count : int;      (** events the baseline stream yields *)
  db : Profiler.Critic_db.t;
  scheme_cache : scheme_cache;
  ckey : string;
      (** content fingerprint of everything this context was prepared
          from (app profile bytes, preparation parameters, code
          version) — the key the harness's stored stats chain from *)
}

val default_instrs : int
(** Dynamic work instructions per run (120_000): roughly one of the
    paper's 100 execution samples, after our 4× trace-length scale-down
    for laptop turnaround (documented in DESIGN.md). *)

val prepare :
  ?store:Store.t ->
  ?instrs:int ->
  ?sample:int ->
  ?profile_window:int ->
  ?threshold:float ->
  ?profile_fraction:float ->
  Workload.Profile.t ->
  app_context
(** Generate, walk and profile one application.  [sample] (default 0)
    selects one of the independent execution samples of the same
    program — the equivalent of the paper's 100 random samples per app:
    different control-flow walk, same code.

    With [?store], the expensive derivation (generate → walk → profile)
    is cached: a hit deserializes the prepared artifacts instead of
    recomputing them, keyed on the profile bytes, every preparation
    parameter and the code version, so any change recomputes.  Corrupt
    or mismatched entries silently fall back to recompute.  The store
    is consulted here only: transformed programs are never persisted,
    because compiling one costs less than reading it back. *)

val context_key :
  ?instrs:int ->
  ?sample:int ->
  ?profile_window:int ->
  ?threshold:float ->
  ?profile_fraction:float ->
  Workload.Profile.t ->
  Store.key
(** The store key {!prepare} uses for these inputs — exposed so tests
    and tools can probe or invalidate specific entries. *)

val transformed : app_context -> Transform.Scheme.t -> Prog.Program.t
(** The program a scheme's compiler pipeline
    ({!Transform.Scheme.pipeline}) produces.  The context's one slot
    keeps the last transformed program: repeated requests for the same
    scheme — e.g. under several machine configurations, or from
    concurrent harness jobs — run the compiler pipeline once, and a
    request for another transformed scheme compiles its whole pass list
    and takes the slot ([Opp16_critic] included: it compiles [Critic]'s
    passes itself rather than reading [Critic] from the slot).
    Baseline, the scheme with no passes, is the context's own program
    and never occupies the slot. *)

val transform_count : app_context -> int
(** Number of compiler-pipeline executions this context has performed —
    the cache-effectiveness observable used by the regression tests. *)

val stream : app_context -> Transform.Scheme.t -> Prog.Trace.Stream.cursor
(** A fresh cursor over the scheme's event stream — the scheme's
    program expanded lazily over the *same* block path.  Always the
    live walk ({!Prog.Trace.Stream.of_program}), the stream's one
    source: streams are never cached or recorded. *)

val source : app_context -> Transform.Scheme.t -> Pipeline.Cpu.source
(** The replayable form of {!stream}, as the simulator consumes it. *)

val trace_of : app_context -> Transform.Scheme.t -> Prog.Trace.t
(** Materialize the scheme's event stream into an array — the adapter
    for consumers that genuinely need random access (whole-trace DFGs,
    characterization).  O(trace) memory and uncached: transient use
    only. *)

val heat : app_context -> Transform.Scheme.t -> int array
(** Per-block temperatures (0 hot .. 3 cold) of the scheme's dynamic
    stream, from {!Profiler.Heat} — the table TRRIP configurations feed
    to {!Pipeline.Cpu.run_stream} as [?itemp].  Memoized per scheme on
    the context. *)

val stats :
  ?config:Pipeline.Config.t ->
  ?probe:Telemetry.Probe.t ->
  app_context ->
  Transform.Scheme.t ->
  Pipeline.Stats.t
(** Simulate a scheme (default machine: Table I), streaming.  [probe]
    attaches a telemetry observer; the returned stats are bit-identical
    with or without one (see {!Pipeline.Cpu.run_stream}).  When the
    configuration selects the TRRIP i-cache policy, the scheme's {!heat}
    table is computed and threaded through automatically.

    The warm pass ({!Pipeline.Cpu.warm}) runs once per (scheme,
    [config.mem]) while the scheme stays the context's most recently
    simulated one; every run simulates on a {!Mem.Hierarchy.copy} of
    that state, so the statistics equal a run that warms its own
    hierarchy. *)

val speedup : base:Pipeline.Stats.t -> Pipeline.Stats.t -> float
(** Fractional cycle-count improvement over [base] for the same work. *)

val energy :
  ?params:Energy.Model.params ->
  base:Pipeline.Stats.t ->
  Pipeline.Stats.t ->
  Energy.Model.saving
