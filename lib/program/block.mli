(** Basic blocks.

    A block is a straight-line run of instructions with a single control
    decision at the end.  Control metadata lives on the block (not the
    trailing instruction) so that compiler passes can rewrite the
    instruction list freely while the CFG shape — and hence the
    deterministic block walk — stays fixed. *)

type terminator =
  | Fallthrough of int
      (** unconditionally continue to the given block *)
  | Cond_branch of { taken : int; not_taken : int; taken_bias : float }
      (** conditional branch; [taken_bias] is the probability of taking *)
  | Jump of int
      (** unconditional direct branch *)
  | Call of { callee : int; return_to : int }
      (** call to a function entry block; [return_to] resumes after the
          matching [Return] *)
  | Return
      (** pop the call stack; with an empty stack the walk restarts at
          the program entry *)

type t = {
  id : int;
  func : int;                (** owning function, for call-graph locality *)
  body : Isa.Instr.t array;  (** instructions, including any trailing
                                 control instruction *)
  term : terminator;
}

val make : id:int -> func:int -> body:Isa.Instr.t array -> term:terminator -> t

val with_body : Isa.Instr.t array -> t -> t

val size_bytes : t -> int
(** Total encoded size of the body. *)

val successors : t -> int list
(** Block ids reachable in one step ([Return] has none statically). *)
