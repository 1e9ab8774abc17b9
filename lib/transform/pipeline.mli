(** Running a pass list, with optional per-pass verification.

    The combinator folds the passes left to right, summing their
    reports.  With a [check] installed, the callback runs after every
    individual pass over the (before, after) program pair; the first
    failure aborts the pipeline and names the offending pass, so a
    defect is attributed to the exact stage that introduced it rather
    than surfacing end-to-end.  {!Oracle.Differential} supplies the
    architectural-equivalence checker (this library sits below the
    oracle, hence the callback inversion).  The lists themselves live
    in {!Scheme.pipeline}. *)

type error = {
  failed_pass : string;  (** {!Pass.t} [name] of the stage that failed *)
  detail : string;  (** the checker's message, e.g. the first divergent
                        block/uid *)
}

type check =
  pass:string ->
  before:Prog.Program.t ->
  after:Prog.Program.t ->
  (unit, string) result

val run :
  ?check:check ->
  Pass.env ->
  Pass.t list ->
  Prog.Program.t ->
  (Prog.Program.t * Report.t, error) result
(** Run the pass list.  Without [check] the result is always [Ok]. *)

val run_exn :
  Pass.env -> Pass.t list -> Prog.Program.t -> Prog.Program.t * Report.t
(** {!run} without a checker; for the production path.  Raises
    [Failure] only if a checker-less run could fail, which it cannot —
    kept total for the compiler's sake. *)

val names : Pass.t list -> string list
(** The passes' names, in order — how [critics_cli schemes] prints
    each {!Scheme.pipeline}. *)
