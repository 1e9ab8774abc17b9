(** Transformation verification.

    Independent checker used by tests and available to callers who want
    the compiler's output re-validated: two blocks are dataflow
    equivalent when every instruction reads each of its source registers
    from the same producer (by uid, or from outside the block) in both
    versions, and the final writer of every register is unchanged.
    Hoisting must preserve this exactly; format conversion must preserve
    it modulo inserted markers (CDP, switch branches), which read and
    write nothing. *)

val dataflow_equivalent : Prog.Block.t -> Prog.Block.t -> bool
(** Compare two versions of a block (marker instructions in either are
    ignored).  Physically equal blocks are equivalent at once. *)

val block_divergence : Prog.Block.t -> Prog.Block.t -> string option
(** [None] when {!dataflow_equivalent}; otherwise prose naming the first
    divergent instruction uid (a lost/gained/re-routed source read, or a
    changed final register writer). *)

val program_equivalent : Prog.Program.t -> Prog.Program.t -> bool
(** All blocks pairwise {!dataflow_equivalent}; false when block counts
    differ. *)

val check_pass :
  (Prog.Program.t -> Prog.Program.t * 'a) ->
  Prog.Program.t ->
  (Prog.Program.t * 'a, string) result
(** [check_pass pass program] runs the pass and verifies equivalence.
    On failure the [Error] names the offending block (id, function and
    positional index) and the first divergent instruction uid via
    {!block_divergence}. *)
