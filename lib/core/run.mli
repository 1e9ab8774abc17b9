(** End-to-end runs: workload → profile → transform → simulate.

    An {!app_context} packages everything derived once per application:
    the generated program, the control-flow path (fixed across schemes,
    so every scheme replays identical work) and the CritIC database.
    Traces are never materialized on this path — profiling and
    simulation both pull the event stream ({!Prog.Trace.Stream}) and run
    in O(window) memory, so the instruction budget can grow without the
    context's footprint following it.  {!stats} evaluates any scheme on
    any machine configuration. *)

type variant = {
  window : int;
  threshold : float;
  fraction : float;
  metric : Profiler.Metric.t;
  exact : int option;
}
(** A database variant of a prepared context: the profiler's window,
    threshold, fraction and metric ({!Profiler.Profile_run.profile}),
    and an optional exact chain length [n] (chains cut to [n] by
    {!Profiler.Critic_db.exact_length}, and compiled with the chain
    length capped at [n]).  The sensitivity sweeps and ablations vary
    it; every other run uses {!prepared}. *)

val prepared : variant
(** The variant {!prepare} profiles with: window 512, threshold 4.0,
    fraction 1.0, [Average_fanout], no exact length — the profiler's
    defaults ({!Profiler.Profile_run.profile}). *)

type scheme_cache
(** Derived per-build state, where a build is a (scheme, variant) pair:
    one slot holding the last transformed program, sized for the hot
    access pattern — one build re-simulated across machine
    configurations, interleaved with the baseline, which needs no slot;
    the TRRIP heat tables; and the warmed memory hierarchies of the most
    recently simulated {!prepared} scheme, one per [Config.mem].
    Mutex-protected so contexts can be shared across domains by the
    parallel experiment harness. *)

type app_context = {
  profile : Workload.Profile.t;
  program : Prog.Program.t;
  seed : int;
  path : Prog.Walk.path;
  event_count : int;      (** events the baseline stream yields *)
  db : Profiler.Critic_db.t;  (** the {!prepared} variant's database *)
  scheme_cache : scheme_cache;
  ckey : string;
      (** content fingerprint of everything this context was prepared
          from (app profile bytes, preparation parameters, code
          version) — the key the harness's stored cells and
          databases chain from *)
}

val default_instrs : int
(** Dynamic work instructions per run (120_000): roughly one of the
    paper's 100 execution samples, after our 4× trace-length scale-down
    for laptop turnaround (documented in DESIGN.md). *)

val prepare :
  ?store:Store.t ->
  ?instrs:int ->
  ?sample:int ->
  Workload.Profile.t ->
  app_context
(** Generate, walk and profile (with {!prepared}) one application.
    Other database variants are derived from the prepared context
    ({!database}), never prepared.  [sample] (default 0)
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

val context_key : ?instrs:int -> ?sample:int -> Workload.Profile.t -> Store.key
(** The store key {!prepare} uses for these inputs — exposed so tests
    and tools can probe or invalidate specific entries. *)

val database : app_context -> variant -> Profiler.Critic_db.t
(** The variant's database: the context's own [db] when the variant
    profiles as {!prepared} does, else a fresh profile of the context's
    baseline stream with the variant's window, threshold, fraction and
    metric; then cut to [exact] chains if set.  Not memoized. *)

val transformed :
  ?variant:variant -> app_context -> Transform.Scheme.t -> Prog.Program.t
(** The program a scheme's compiler pipeline
    ({!Transform.Scheme.pipeline}) produces from the [variant]'s
    {!database} (default {!prepared}: the context's own).  This is the
    one place an [exact n] variant caps the pipeline's [max_len] at
    [n].  The context's one slot keeps the last transformed program:
    repeated requests for the same (scheme, variant) — e.g. under
    several machine configurations, or from concurrent harness jobs —
    run the compiler pipeline once, and a request for another
    transformed build compiles its whole pass list and takes the slot
    ([Opp16_critic] included: it compiles [Critic]'s passes itself
    rather than reading [Critic] from the slot).  Baseline, the scheme
    with no passes, is the context's own program whatever the variant
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

val stats :
  ?config:Pipeline.Config.t ->
  ?probe:Telemetry.Probe.t ->
  ?variant:variant ->
  app_context ->
  Transform.Scheme.t ->
  Pipeline.Stats.t
(** Simulate a scheme (default machine: Table I), streaming, as
    compiled from the [variant]'s database (default {!prepared}).
    [probe] attaches a telemetry observer; the returned stats are
    bit-identical with or without one (see {!Pipeline.Cpu.run_stream}).
    When the configuration selects the TRRIP i-cache policy, the
    build's per-block temperatures ({!Profiler.Heat}, 0 hot .. 3 cold)
    are computed once and passed as [?itemp].

    For the {!prepared} variant the warm pass ({!Pipeline.Cpu.warm})
    runs once per (scheme, [config.mem]) while the scheme stays the
    context's most recently simulated one; every run simulates on a
    {!Mem.Hierarchy.copy} of that state, so the statistics equal a run
    that warms its own hierarchy — which is what a run of any other
    variant does. *)

val speedup : base:Pipeline.Stats.t -> Pipeline.Stats.t -> float
(** Fractional cycle-count improvement over [base] for the same work. *)

val energy : base:Pipeline.Stats.t -> Pipeline.Stats.t -> Energy.Model.saving
