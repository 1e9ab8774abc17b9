(** Running a pass list.

    The combinator folds the passes left to right, summing their
    reports.  {!Oracle.Differential.check_pipelines} walks the same
    lists with the architectural checker armed after every individual
    pass, so a defect is attributed to the exact stage that introduced
    it rather than surfacing end-to-end.  The lists themselves live in
    {!Scheme.pipeline}. *)

val run : Pass.env -> Pass.t list -> Prog.Program.t -> Prog.Program.t * Report.t
(** Run the pass list: the last pass's program and the summed
    reports. *)

val names : Pass.t list -> string list
(** The passes' names, in order — how [critics_cli schemes] prints
    each {!Scheme.pipeline}. *)
