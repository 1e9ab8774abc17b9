(** Shared experiment harness: a parallel batch engine.

    Prepares each application once (program, path, trace, CritIC
    database) and memoizes simulation results keyed by
    (app, scheme, machine-configuration fingerprint), so the figure
    modules can freely share runs.  All experiments in this library draw
    from one harness instance; [dune exec bench/main.exe] builds a
    single harness and regenerates every table and figure from it.

    Independent (app × scheme × config) jobs can be evaluated across a
    pool of OCaml 5 domains: enqueue them with {!run_batch} and the
    memoized lookups ({!stats}, {!speedup}, {!context}) become cache
    hits.  Results are bit-identical to a sequential run — every job is
    deterministic (per-context seeded RNG, no shared mutable simulation
    state) and the memo tables are mutex-protected — which the test
    suite asserts. *)

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
    the harness runs, with the given window size in cycles; the probes
    are memoized alongside the stats ({!probe_for}) and their registries
    merge deterministically ({!telemetry_registry}).  Simulation results
    are bit-identical with telemetry on or off.

    [store] attaches a prepared-artifact cache ({!Store}): prepared
    contexts and completed simulations are persisted, so a warm harness
    loads them instead of recomputing.  Transformed programs are not
    persisted; {!Critics.Run.transformed} compiles them.
    Telemetry-enabled simulations always run live (probes observe the
    run itself). *)

val instrs : t -> int

val jobs : t -> int
(** Parallelism width this harness was created with. *)

val store : t -> Store.t option
(** The attached prepared-artifact store, if any. *)

val pool : t -> Parallel.Pool.t
(** The harness's domain pool, for experiment modules that parallelize
    custom per-app computations beyond the memoized simulations.  Do not
    call pool operations from inside tasks already running on it. *)

val fan_out :
  t ->
  'a list ->
  Workload.Profile.t list ->
  ('a -> Workload.Profile.t -> 'b) ->
  ('a * 'b list) list
(** [fan_out t settings apps f] evaluates [f s app] for every setting ×
    app as one task each on the {!pool}, and returns each setting with
    its results in [apps] order, settings in input order — so a mean
    over a group equals a sequential run's. *)

val context : t -> Workload.Profile.t -> Critics.Run.app_context
(** Cached per-application context (thread-safe).  Every context a
    harness prepares stays resident for the harness's lifetime. *)

val stats :
  t ->
  ?config:Pipeline.Config.t ->
  Workload.Profile.t ->
  Critics.Scheme.t ->
  Pipeline.Stats.t
(** Cached simulation (thread-safe).  The memo key is derived from the
    *actual* [config] value (a digest of the configuration record), so
    distinct configurations never collide and structurally equal ones
    share one entry. *)

val speedup :
  t ->
  ?config:Pipeline.Config.t ->
  Workload.Profile.t ->
  Critics.Scheme.t ->
  float
(** Speedup of (scheme, config) over (Baseline, default config) for the
    same application and work. *)

(** {2 Telemetry} *)

val probe_for :
  t ->
  ?config:Pipeline.Config.t ->
  Workload.Profile.t ->
  Critics.Scheme.t ->
  Telemetry.Probe.t option
(** The probe memoized for (app, scheme, config), if the harness has
    telemetry enabled and that simulation has run.  Like the stats memo,
    the first completed run wins. *)

val telemetry_probes : t -> (string * Telemetry.Probe.t) list
(** Every memoized probe with its memo key, sorted by key — a
    deterministic enumeration regardless of pool completion order. *)

val telemetry_registry : t -> Telemetry.Registry.t
(** All probe registries merged, in sorted-key order.  Because registry
    merge is commutative and associative, the aggregate is identical at
    every [jobs] width and job submission order. *)

(** {2 Batch evaluation} *)

type job
(** One unit of work: prepare an application and, unless it is a
    context-only job, simulate one (scheme, config) on it. *)

val job :
  ?config:Pipeline.Config.t -> Workload.Profile.t -> Critics.Scheme.t -> job
(** A simulation job ([config] defaults to Table I). *)

val context_job : Workload.Profile.t -> job
(** Prepare the application context only (program, trace, CritIC
    database) — for experiments that consume contexts directly. *)

val run_batch : t -> job list -> unit
(** Evaluate every not-yet-memoized job across the harness's domain
    pool and store the results: first all missing application contexts
    in parallel, then all missing simulations in parallel.  Duplicate
    and already-cached jobs are skipped.  Subsequent {!stats} /
    {!context} calls are cache hits. *)

val telemetry_registry_for : t -> job list -> Telemetry.Registry.t
(** The probe registries of the given jobs' memo keys merged (duplicate
    keys counted once, sorted-key order) — how bench scopes histogram
    summaries to one artifact's job set. *)

val fetch_totals_for : t -> job list -> int * int
(** [(fetch_bytes, cycles)] summed over the distinct simulations the
    given jobs name (memoized results only) — the fetch-bandwidth
    aggregate bench embeds per artifact in BENCH_results.json. *)

val mean : float list -> float

val suites : (string * Workload.Profile.t list) list
(** [("Mobile", ...); ("SPEC.int", ...); ("SPEC.float", ...)]. *)
