(** Differential harness: pairs of independent implementations checked
    against each other, reporting the first divergence as an actionable
    message.

    The comparison chain — a green {!check_prepared} means all of these
    agree on a program's architectural behaviour:
    - {!check_walk}: {!Prog.Walk.path_for_instrs} vs the golden model's
      independent walk;
    - {!check_trace}: {!Prog.Trace.expand} vs the golden model's commit
      log (pcs, uids, memory addresses, branch outcomes, work counts);
    - {!check_cpu_trace}: {!Pipeline.Cpu.run} retirement stream (with
      [~checks:true] invariants armed) vs the trace minus CDP markers,
      plus statistics accounting identities;
    - {!check_transform_pair}: per-block commit digests of a transformed
      program vs its original. *)

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
  Prog.Trace.t ->
  (int, string) result
(** Simulate with invariants armed and the commit observer attached;
    the retirement stream must be exactly the trace minus CDP markers,
    in order, and the statistics must satisfy the accounting
    identities.  Returns the number of retirements compared. *)

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
  trace : Prog.Trace.t;
  db : Profiler.Critic_db.t;
}

val prepare : ?instrs:int -> Prog.Program.t -> seed:int -> prepared
(** Walk, expand and profile a program ([instrs] defaults to 2000 —
    fuzz-sized runs). *)

val transform_variants : prepared -> (string * Prog.Program.t) list
(** Every scheme of {!Transform.Scheme.all} that has passes (all but
    baseline: ten), compiled from the scheme table
    ({!Transform.Scheme.compile}) over the prepared program and named by
    {!Transform.Scheme.name}.  Every scheme the bench simulates is in
    this list by construction. *)

val pipeline_variants :
  prepared ->
  (string * Transform.Pass.env * Transform.Pass.t list) list
(** The same ten schemes for per-pass test: each scheme's pass list and
    options from {!Transform.Scheme.pipeline}, the environment built over
    the prepared database. *)

val check_pipeline :
  prepared ->
  string * Transform.Pass.env * Transform.Pass.t list ->
  (Prog.Program.t, string) result
(** Run one pass list with the architectural checker armed after
    {e every individual pass}: each intermediate program must be
    dataflow-equivalent to the source per block
    ({!Transform.Verify.check_pass}, which names the first divergent
    block and uid) and golden-model equivalent over the prepared walk
    ({!check_transform_pair}).  A failure is reported as
    ["[variant/pass] detail"], attributing the divergence to the exact
    stage that introduced it. *)

val check_pipelines :
  ?variants:(prepared -> (string * Transform.Pass.env * Transform.Pass.t list) list) ->
  prepared ->
  (int, string) result
(** {!check_pipeline} over every variant (default
    {!pipeline_variants}); returns the number of pipelines checked. *)

val check_variant :
  ?configs:(string * Pipeline.Config.t) list ->
  prepared ->
  string * Prog.Program.t ->
  (int, string) result
(** Full differential for one transformed variant:
    [Verify.program_equivalent], golden-model equivalence, trace
    agreement, then simulator agreement per config.  Error messages are
    prefixed with the variant (and config) name. *)

type tally = {
  compared : int;
      (** retirements compared: every (program, config) pair the suite
          covers, whether simulated or credited *)
  simulated : int;  (** of those, the retirements actually simulated *)
}

val check_prepared :
  ?configs:(string * Pipeline.Config.t) list ->
  ?variant_configs:(string * Pipeline.Config.t) list ->
  ?variants:bool ->
  prepared ->
  (tally, string) result
(** The whole suite on one program: walk, baseline trace, baseline
    simulation across [configs], and (unless [variants:false]) every
    transform variant across [variant_configs] (default: first and last
    of [configs]).

    Each distinct program is checked once.  A variant equal to the
    baseline program or to an earlier variant — same entry, and every
    block physically or structurally equal — is not checked again: its
    retirements are credited from the earlier check.  A variant equal
    to the baseline is credited only under configs the baseline was
    checked under (matched by value) and simulated under any other.
    [compared] is the same total that checking every variant would
    return. *)

val check_program :
  ?configs:(string * Pipeline.Config.t) list ->
  ?variant_configs:(string * Pipeline.Config.t) list ->
  ?variants:bool ->
  ?instrs:int ->
  Prog.Program.t ->
  seed:int ->
  (tally, string) result
(** [prepare] + [check_prepared]. *)
