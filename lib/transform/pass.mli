(** The nanopass interface of the CritIC compiler step.

    A pass is a named, total program-to-program function: it receives
    the shared environment (profile database plus options), returns the
    rewritten program, and accounts for what it did in a {!Report.t}.
    Passes communicate exclusively through the program — chain
    membership travels as {!Isa.Instr.chain_tag}s placed by
    {!Chain_select} and read by every later pass — so any pass list is
    runnable and individually checkable (see {!Pipeline}).  Which list,
    under which options, makes each scheme is {!Scheme.pipeline}. *)

type switch_mode = Cdp | Branches | Hoist_only | Fused_macro
(** The format-switch mechanism:
    - [Cdp] — the paper's proposal: a CDP marker announcing up to nine
      16-bit instructions (1 extra decode cycle, evaluated in
      Sec. IV-B);
    - [Branches] — Approach 1 (Sec. IV-A), usable on stock hardware: an
      explicit 32-bit branch before and a 16-bit branch after the chain,
      both always taken;
    - [Hoist_only] — the "Hoist" design point of Sec. IV-D: aggregation
      without format conversion;
    - [Fused_macro] — the ISA-extension alternative the paper rejects
      (Sec. III-B): each chain becomes a single hypothetical
      macro-instruction, so only its head costs fetch bytes.  An upper
      bound with no encoding constraints at all. *)

type options = {
  max_len : int;  (** chain length cap; the paper's realistic CritIC
                      uses 5 *)
  mode : switch_mode;
  ideal : bool;  (** CritIC.Ideal: no length cap and hypothetical
                     16-bit encodings for every chain member *)
}

val default_options : options
(** [{ max_len = 5; mode = Cdp; ideal = false }] *)

val ideal_options : options

type env = {
  db : Profiler.Critic_db.t;
  options : options;
  blocks : int array;  (** ids of the blocks [db] names, ascending *)
}
(** What every pass sees.  [db] is already length-restricted according
    to the options (see {!env}).  Compiling is sparse: every pass after
    {!Chain_select} reads chain tags only in [blocks] (ids the program
    does not have are ignored) and rewrites them with
    {!Prog.Program.update_blocks}, so every other block stays physically
    shared with the input.  {!Thumb.opp16} and {!Thumb.compress} read no
    profile and convert the whole program. *)

val env : ?options:options -> Profiler.Critic_db.t -> env
(** Build the pass environment: unless [options.ideal], the database is
    restricted to [options.max_len]-member prefixes — exactly the
    restriction the monolithic pass applied on entry. *)

type t = {
  name : string;  (** stable identifier used in check attribution *)
  apply : env -> Prog.Program.t -> Prog.Program.t * Report.t;
}

val fresh_uids : Prog.Program.t -> unit -> int
(** [fresh_uids program] counts up from [max_uid program + 1]: the one
    uid source of every pass that inserts instructions
    ({!Cdp_insert}, {!Branch_switch}, {!Thumb}).  The uids a pass draws
    are part of the compiled program, so each pass draws them in a
    fixed order (see {!Cdp_insert}). *)
