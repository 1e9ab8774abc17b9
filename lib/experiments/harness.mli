(** Shared experiment harness: a parallel batch engine.

    Prepares each application once (program, path, trace, CritIC
    database) and memoizes one cell per simulation — its stats and,
    with telemetry on, its probe — keyed by
    (app, scheme, machine-configuration fingerprint, database variant),
    so the figure modules can freely share runs.  All experiments in
    this library draw from one harness instance; [dune exec
    bench/main.exe] builds a single harness and regenerates every table
    and figure from it.  No experiment profiles, compiles or simulates
    outside it: a sweep over profiler settings is a list of
    {!Critics.Run.variant} jobs.

    Independent (app × scheme × config) jobs can be evaluated across a
    pool of OCaml 5 domains: enqueue them with {!run_batch} and the
    memoized lookups ({!stats}, {!speedup}, {!context}) become cache
    hits.  Results are bit-identical to a sequential run — every job is
    deterministic (per-context seeded RNG, no shared mutable simulation
    state) and the memo tables are mutex-protected — which the test
    suite asserts.

    Besides the contexts {!Critics.Run.prepare} stores, every artifact
    the harness stores is keyed by the prepared context's key
    ({!Critics.Run.app_context}[.ckey]) and the artifact's memo key,
    under one of two kinds: [stats] (a cell) and [database] (a variant
    database). *)

type t

val create :
  ?instrs:int ->
  ?jobs:int ->
  ?telemetry:int ->
  ?store:Store.t ->
  unit ->
  t
(** [instrs] is the work-instruction budget per application run
    (default {!Critics.Run.default_instrs}).  [jobs] is the parallelism
    width for {!run_batch} (default {!Parallel.default_jobs}:
    [Domain.recommended_domain_count ()]); [jobs = 1] never spawns a
    domain and evaluates everything sequentially in the caller.
    [telemetry] enables cycle-attribution probes on every simulation
    the harness runs, with the given window size in cycles; each cell
    keeps the probe that observed it ({!probe_for}).  Simulation
    results are bit-identical with telemetry on or off.

    [store] attaches a prepared-artifact cache ({!Store}): prepared
    contexts, completed simulations (variant ones included) and the
    variant databases {!database} returns are persisted, so a warm
    harness loads them instead of recomputing.  Transformed programs
    are not persisted; {!Critics.Run.transformed} compiles them again.
    Telemetry-enabled simulations always run live and neither read nor
    write a stored cell (probes observe the run itself). *)

val context : t -> Workload.Profile.t -> Critics.Run.app_context
(** Cached per-application context (thread-safe).  Every context a
    harness prepares stays resident for the harness's lifetime. *)

val database :
  t -> Workload.Profile.t -> Critics.Run.variant -> Profiler.Critic_db.t
(** {!Critics.Run.database} for artifacts that read a variant's
    database themselves (thread-safe).  The {!Critics.Run.prepared}
    variant's is the context's own [db], returned as is; any other is
    kept for the harness's lifetime and, with a store, stored under the
    [database] kind.  A simulation derives its database without it. *)

val stats :
  t ->
  ?config:Pipeline.Config.t ->
  ?variant:Critics.Run.variant ->
  Workload.Profile.t ->
  Critics.Scheme.t ->
  Pipeline.Stats.t
(** The stats of the memoized cell (thread-safe): the scheme compiled
    from the [variant]'s database (default {!Critics.Run.prepared}) and
    simulated on [config].  The memo key is
    [app/scheme/<config digest>], derived from the *actual* [config]
    value, so distinct configurations never collide and structurally
    equal ones share one entry; a variant other than the prepared one
    appends [/<variant digest>].  A variant equal to
    {!Critics.Run.prepared} field by field is the prepared cell.  With a
    store (and telemetry off) the stats are stored under
    [ckey; memo key]. *)

val speedup :
  t ->
  ?config:Pipeline.Config.t ->
  ?variant:Critics.Run.variant ->
  Workload.Profile.t ->
  Critics.Scheme.t ->
  float
(** Speedup of (scheme, config, variant) over (Baseline, default
    config, prepared variant) for the same application and work. *)

(** {2 Telemetry} *)

val probe_for :
  t ->
  ?config:Pipeline.Config.t ->
  Workload.Profile.t ->
  Critics.Scheme.t ->
  Telemetry.Probe.t option
(** The probe of the prepared cell (app, scheme, config), if the
    harness has telemetry enabled and that simulation has run.  Like
    the cell's stats, the first completed run wins. *)

val telemetry_probes : t -> (string * Telemetry.Probe.t) list
(** Every cell's probe with the cell's memo key, sorted by key — a
    deterministic enumeration regardless of pool completion order. *)

(** {2 Batch evaluation} *)

type job
(** One unit of work: prepare an application and, unless it is a
    context-only job, simulate one (scheme, config, variant) on it. *)

val job :
  ?config:Pipeline.Config.t ->
  ?variant:Critics.Run.variant ->
  Workload.Profile.t ->
  Critics.Scheme.t ->
  job
(** A simulation job ([config] defaults to Table I, [variant] to
    {!Critics.Run.prepared}). *)

val context_job : ?variant:Critics.Run.variant -> Workload.Profile.t -> job
(** Prepare the application context only (program, trace, CritIC
    database) — for experiments that consume contexts directly — and,
    for a [variant] other than the prepared one, its {!database}. *)

val run_batch : t -> job list -> unit
(** Evaluate every not-yet-memoized job across the harness's domain
    pool and store the results: first all missing application contexts
    in parallel, then all missing simulations in parallel, then all
    missing databases of non-prepared variants in parallel.  Duplicate
    and already-cached jobs are skipped.  Subsequent {!stats} /
    {!context} / {!database} calls are cache hits. *)

val mean : float list -> float

val suites : (string * Workload.Profile.t list) list
(** [("Mobile", ...); ("SPEC.int", ...); ("SPEC.float", ...)]. *)
