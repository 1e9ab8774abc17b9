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
    width for {!run_batch} (default {!Parallel.default_jobs}: the
    [CRITICS_JOBS] environment variable, else
    [Domain.recommended_domain_count ()]); [jobs = 1] never spawns a
    domain and evaluates everything sequentially in the caller.
    [telemetry] enables cycle-attribution probes on every simulation
    the harness runs, with the given window size in cycles; the probes
    are memoized alongside the stats ({!probe_for}) and their registries
    merge deterministically ({!telemetry_registry}).  Simulation results
    are bit-identical with telemetry on or off.

    [store] attaches a prepared-artifact cache ({!Store}): prepared
    contexts and completed default-fuel simulations are persisted, so a
    warm harness loads them instead of recomputing.  Transformed
    programs are not persisted; {!Critics.Run.transformed} compiles
    them.  Telemetry-enabled simulations always run live (probes observe
    the run itself). *)

val instrs : t -> int

val jobs : t -> int
(** Parallelism width this harness was created with. *)

val telemetry_window : t -> int option
(** The probe window size, or [None] when telemetry is disabled. *)

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
    the first completed run wins; failed runs store nothing. *)

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

(** {2 Supervised batch evaluation}

    {!run_batch} is all-or-nothing: one poisoned job aborts the whole
    sweep.  {!run_batch_supervised} instead contains every per-job
    failure — classified through {!Util.Err} with (app, scheme) context
    — retries transient ones with bounded deterministic backoff,
    quarantines repeat offenders, enforces a per-job simulation-fuel
    deadline and a batch wall-clock deadline, and reports exactly what
    happened to every job while the rest of the sweep completes.
    Successful results land in the same memo tables as {!run_batch}, so
    surviving artifacts are bit-identical to a fault-free run. *)

type policy = {
  retries : int;  (** extra attempts granted to [Transient] failures *)
  backoff_ms : float;
      (** base delay before retry round [r], doubled per round; [0.]
          disables waiting (the test default) *)
  backoff_max_ms : float;  (** backoff cap *)
  backoff_seed : int;  (** jitter seed — no ambient randomness *)
  fuel : int option;
      (** per-job simulated-cycle budget ({!Pipeline.Cpu.run_stream}'s
          cooperative watchdog); [None] = unlimited *)
  wall_deadline_s : float option;
      (** batch wall-clock deadline, checked between rounds; pending
          jobs are skipped as [Cancelled] once it passes *)
  quarantine_after : int;
      (** failed attempts (any job) an app may accumulate before its
          remaining jobs are quarantined *)
  stall_fuel : int;
      (** fuel budget substituted for jobs the fault plan stalls *)
}

val default_policy : policy
(** 2 retries, no backoff wait, no fuel or wall deadline, quarantine
    after 3 failures. *)

type outcome =
  | Completed
  | Failed of Util.Err.t  (** ran and gave up (after retries, if any) *)
  | Quarantined of Util.Err.t
      (** the app hit the quarantine threshold; this job was cut off *)
  | Skipped of Util.Err.t  (** never decided: batch deadline passed *)

type job_report = {
  report_app : string;
  report_scheme : string option;  (** [None] for context-only jobs *)
  report_attempts : int;
  report_outcome : outcome;
}

type batch_report = {
  completed : int;
  failures : job_report list;  (** non-[Completed] reports, input order *)
  reports : job_report list;  (** every job, input order *)
  rounds : int;  (** dispatch rounds executed (1 = no retries needed) *)
}

val run_batch_supervised :
  ?policy:policy -> ?faults:Workload.Fault.plan -> t -> job list -> batch_report
(** Evaluate a batch under supervision.  Jobs run across the harness's
    domain pool in rounds; round results are folded in submission
    order, so outcomes are identical at every [jobs] width.  [faults]
    (default {!Workload.Fault.none}) injects the plan's deterministic
    faults — used by the fault-injection test suite to prove
    containment end-to-end.  Failed jobs write nothing to the memo
    tables. *)

val outcome_name : outcome -> string
val outcome_err : outcome -> Util.Err.t option

val backoff_delay_s : policy -> round:int -> float
(** Delay (seconds) before retry round [round]: [backoff_ms] doubled
    per round with seeded jitter in [0.5, 1.5), capped at
    [backoff_max_ms].  Deterministic in the policy — exposed for the
    test suite. *)

val render_report : batch_report -> string
(** Human-readable summary: completion counts plus one line per
    non-completed job with its classified error. *)

val mean : float list -> float

val suites : (string * Workload.Profile.t list) list
(** [("Mobile", ...); ("SPEC.int", ...); ("SPEC.float", ...)]. *)
