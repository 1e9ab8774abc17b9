(** Deterministic fault injection for the supervision layer.

    Large sweeps must tolerate per-app failures; this module makes
    failures {e reproducible} so every supervision path (containment,
    retry, quarantine, deadline abort, corrupt-input rejection) can be
    exercised by tests.  A plan derives entirely from its seed — victim
    apps are chosen by a seeded shuffle, never by ambient randomness —
    so the same plan fires the same faults at any parallelism width. *)

type action =
  | Raise_transient of int
      (** raise [Util.Err.Error] with kind [Transient] on the first [n]
          attempts of a job, then succeed — the retry-then-succeed
          path *)
  | Raise_fatal  (** raise kind [Fatal] on every attempt *)
  | Stall
      (** run the job with a tiny simulation-fuel budget so the
          {!Pipeline.Cpu.run_stream} watchdog aborts it with [Timeout] *)
  | Corrupt_db
      (** round-trip the job's profile database through a corrupted
          serialization, so the loader rejects it with
          [Corrupt_input] *)

type plan

val none : plan
(** The empty plan: no job faults. *)

val plan :
  seed:int ->
  ?raise_transient:int ->
  ?transient_failures:int ->
  ?raise_fatal:int ->
  ?stall:int ->
  ?corrupt_db:int ->
  string list ->
  plan
(** [plan ~seed ... candidates] draws the requested number of distinct
    victims per action from [candidates] (app names) by seeded shuffle.
    [transient_failures] (default 1) is how many attempts each
    [Raise_transient] victim fails before succeeding.  Raises
    [Invalid_argument] if more victims are requested than candidates. *)

val action_for : plan -> app:string -> action option
(** The fault (if any) planned for [app]. *)

val seed : plan -> int

val victims : plan -> (string * action) list
val action_name : action -> string
val to_string : plan -> string

val truncate_string : string -> string
(** First half of the input — a guaranteed-detectable corruption of a
    profile database (counts and section terminators go missing). *)
