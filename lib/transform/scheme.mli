(** The code-generation schemes evaluated in the paper, and the one
    table that says how each is compiled: {!pipeline}. *)

type t =
  | Baseline       (** unmodified program *)
  | Hoist          (** chain aggregation without format conversion
                       (Sec. IV-D) *)
  | Critic         (** the proposal: hoist + 16-bit conversion behind a
                       CDP switch, chains up to length 5 *)
  | Critic_ideal   (** hypothetical: every CritIC converted, no length
                       cap (Sec. IV-E) *)
  | Critic_branches (** Approach 1: switch via explicit branches, runs
                        on stock hardware (Sec. IV-A) *)
  | Macro_ideal    (** the rejected ISA-extension design (Sec. III-B):
                       every chain as one hypothetical macro-instruction
                       — an upper bound on what chain aggregation could
                       buy with unlimited encoding space *)
  | Opp16          (** criticality-agnostic conversion of runs >= 3
                       (Sec. V) *)
  | Compress       (** fine-grained Thumb conversion of [78] *)
  | Opp16_critic   (** CritIC first, then OPP16 on the remainder *)
  | Narrow_only    (** pass-list ablation the paper never tried:
                       chain-select + narrow-convert + CDP markers with
                       {e no hoisting} — members stay scattered, every
                       consecutive run pays its own marker *)
  | Critic_reorder (** pass-list ablation: narrow-before-hoist ordering;
                       produces the same program as {!Critic} (the
                       passes commute), priced end-to-end to demonstrate
                       it *)

val all : t list
val name : t -> string
val of_string : string -> t option
val describe : t -> string

val pipeline : t -> Pass.options * Pass.t list
(** The options a scheme's passes run under and the passes, in order.
    Every consumer of a scheme — the simulation runs, the oracle's
    per-pass check, the experiments and the CLI — reads this table, so
    a scheme is compiled one way everywhere.  [Baseline] is the empty
    list.  The CritIC schemes start with {!Chain_select}, whose choices
    depend on [options.mode] (only [Cdp] and [Branches] require
    Thumb-convertibility); [Opp16_critic] is [Critic]'s list followed
    by {!Thumb.opp16}. *)

val compile :
  t -> Profiler.Critic_db.t -> Prog.Program.t -> Prog.Program.t * Report.t
(** Run the scheme's {!pipeline} over a program with the given profile
    database: [Pipeline.run (Pass.env ~options db) passes]. *)
