(** Differential harness: pairs of independent implementations checked
    against each other, reporting the first divergence as an actionable
    message.

    The comparison chain — a green {!check_prepared} means all of these
    agree on a program's architectural behaviour:
    - {!check_walk}: {!Prog.Walk.path_for_instrs} vs the golden model's
      independent walk;
    - {!check_trace}: {!Prog.Trace.expand} vs the golden model's commit
      log (pcs, uids, memory addresses, branch outcomes, work counts);
    - {!check_cpu_trace}: the {!Pipeline.Cpu.run_stream} retirement
      stream over the live {!Prog.Trace.Stream.of_program} cursor (with
      [~checks:true] invariants armed) vs {!Prog.Trace.expand} minus
      CDP markers, plus statistics accounting identities;
    - {!check_pipelines}: every pass of every scheme vs the source
      program, by per-block dataflow and golden-model commit digests. *)

val configs : (string * Pipeline.Config.t) list
(** Named machine variants the sweep crosses programs with: Table I,
    2×-front-end, 4×-i-cache + BackendPrio, a narrow 2-wide machine,
    free CDP + EFetch, perfect branch + critical-load prefetch, and
    wrong-path fetch. *)

val sample_config : int -> string * Pipeline.Config.t
(** Deterministically pick one of {!configs} from a seed. *)

val check_walk :
  Prog.Program.t -> seed:int -> instrs:int -> (unit, string) result

val check_trace :
  Prog.Program.t ->
  seed:int ->
  path:Prog.Walk.path ->
  (Interp.result, string) result
(** Expand the trace and run the golden model over the same path;
    compare event-by-event.  Returns the oracle result on success. *)

val check_cpu_trace :
  config:Pipeline.Config.t ->
  Prog.Program.t ->
  seed:int ->
  path:Prog.Walk.path ->
  (int, string) result
(** Simulate the program's live stream over [path], in the batches
    {!Prog.Trace.Stream.of_program} yields, with invariants armed and
    the commit observer attached; the retirement stream must be
    exactly the expanded trace minus CDP markers, in order, and the
    statistics must satisfy the accounting identities.  Returns the
    number of retirements compared. *)

val check_transform_pair :
  original:Prog.Program.t ->
  transformed:Prog.Program.t ->
  seed:int ->
  path:Prog.Walk.path ->
  (unit, string) result
(** Golden-model equivalence of two program versions over the same
    walk: per-block-instance commit digests and final register file
    must match ({!Commit_log.arch_equivalent}). *)

type prepared = {
  program : Prog.Program.t;
  seed : int;
  instrs : int;
  path : Prog.Walk.path;
  db : Profiler.Critic_db.t;
}

val prepare : ?instrs:int -> Prog.Program.t -> seed:int -> prepared
(** Walk a program and profile its stream
    ({!Profiler.Profile_run.profile_stream}; [instrs] defaults to
    2000 — fuzz-sized runs). *)

val check_pipeline :
  prepared ->
  string * Transform.Pass.env * Transform.Pass.t list ->
  (Prog.Program.t, string) result
(** Run one pass list with the architectural checker armed after
    {e every individual pass}: each intermediate program must be
    dataflow-equivalent to the source per block
    ({!Transform.Verify.check_pass}, which names the first divergent
    block and uid) and golden-model equivalent to it over the prepared
    walk.  A pass that returns its input program ([==]) is not checked
    again.  A failure is reported as ["[variant/pass] detail"],
    attributing the divergence to the exact stage that introduced it.
    Returns the final program. *)

type pipelines = {
  finals : (string * Prog.Program.t) list;
      (** every scheme of {!Transform.Scheme.all} that has passes (all
          but baseline: ten), named by {!Transform.Scheme.name}, with
          its final program, in table order *)
  applications : int;  (** distinct pass applications made *)
}

val check_pipelines : prepared -> (pipelines, string) result
(** {!check_pipeline} over every row of {!Transform.Scheme.pipeline}
    that has passes, so every scheme the bench simulates is checked by
    construction.  Each shared prefix is applied and checked once: rows
    with equal {!Transform.Pass.options} share a prefix as far as their
    pass lists hold physically the same {!Transform.Pass.t} values
    (Critic's four passes serve critic, opp16+critic, and the
    chain-select that narrow.only and critic.reorder start with).  The
    source program runs through the golden model once.  A failure names
    the first row, in table order, that reaches the failing pass. *)

type tally = {
  compared : int;
      (** retirements compared: every (program, config) pair the suite
          covers, whether simulated or credited *)
  simulated : int;  (** of those, the retirements actually simulated *)
  pipelines : int;  (** pass lists checked after every pass *)
  applications : int;  (** distinct pass applications they took *)
}

val check_prepared :
  ?configs:(string * Pipeline.Config.t) list ->
  ?variant_configs:(string * Pipeline.Config.t) list ->
  prepared ->
  (tally, string) result
(** The whole suite on one program: walk, baseline trace, baseline
    simulation across [configs], {!check_pipelines}, then each final
    program's trace and its simulation across [variant_configs]
    (default: first and last of [configs]).

    Each distinct final program is checked once.  One equal to the
    baseline program or to an earlier final program — same entry, and
    every block physically or structurally equal — is not checked
    again: its retirements are credited from the earlier check.  One
    equal to the baseline is credited only under configs the baseline
    was checked under (matched by value) and simulated under any other.
    [compared] is the same total that checking every final program
    would return. *)

val check_program :
  ?configs:(string * Pipeline.Config.t) list ->
  ?variant_configs:(string * Pipeline.Config.t) list ->
  ?instrs:int ->
  Prog.Program.t ->
  seed:int ->
  (tally, string) result
(** [prepare] + [check_prepared]. *)

val corpus :
  cases:int -> seed:int -> (string * (tally, string) result) Seq.t
(** The differential corpus, one labelled case per element, each
    checked when its element is reached: first [cases] (≥ 0) fuzzed
    programs, case [i] being {!Workload.Fuzz.program_of_seed}
    [(seed + i)] at 500 instructions with walk seed
    [(seed + i) * 7 + 1] over the [table_i], [narrow2] and [wrong_path]
    configs, its error carrying the genome; then every app of
    {!Workload.Apps.all} at 1 500 instructions with walk seed
    [p.seed lxor 0x5EED] over all of {!configs}.  So [Seq.take cases]
    is the fuzzed part alone and [~cases:0] the apps alone. *)
