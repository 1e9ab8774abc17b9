(** Workload characterization.

    Summarizes a dynamic event stream the way the paper's workload sections
    (and the authors' companion IISWC'17 characterization) do: the
    instruction mix, control behaviour, code footprint and basic-block
    shape that explain *why* an app behaves as it does on the machine.
    Used for calibration checks, the CLI's `characterize` command, and
    the workload tests. *)

type t = {
  work_instructions : int;
  mix : (string * float) list;
      (** share per opcode class, descending *)
  control_share : float;       (** control transfers per instruction *)
  cond_branch_share : float;
  taken_share : float;         (** taken fraction of control transfers *)
  mean_run_length : float;     (** instructions between taken transfers *)
  distinct_blocks : int;
  distinct_functions : int;
  touched_code_bytes : int;    (** distinct 64-byte code lines × 64 *)
  mean_block_visit : float;    (** instructions per block visit *)
  thumb_convertible_share : float;
      (** instructions directly representable in the 16-bit format *)
}

val of_stream : Prog.Trace.Stream.cursor -> t
(** Drain the cursor in one fold, counting its events and work
    instructions ({!Prog.Trace.is_work}) as it goes: no trace is
    materialized. *)

val render : t -> string
