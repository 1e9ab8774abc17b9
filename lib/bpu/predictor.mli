(** Branch direction predictors.

    Table I specifies a "4k-entry 2-level BPU"; we implement a gshare
    two-level adaptive predictor (global history XOR-folded into a table
    of 2-bit saturating counters).  [Perfect] models the PerfectBr
    configuration of Sec. IV-G; [Static_taken] is a trivial reference
    predictor used in tests. *)

type kind =
  | Two_level of { entries : int; history_bits : int }
  | Static_taken
  | Perfect

val default_kind : kind
(** 4096 entries, 12 history bits. *)

type t

type stats = { lookups : int; mispredicts : int }

val create : kind -> t

val predict_and_update : t -> pc:int -> taken:bool -> bool
(** [predict_and_update t ~pc ~taken] predicts the branch at [pc],
    trains with the actual outcome [taken], and returns whether the
    prediction was correct. *)

val stats : t -> stats
