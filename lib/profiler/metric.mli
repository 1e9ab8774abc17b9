(** Chain-criticality metrics.

    The paper scores a chain by its *average fanout per instruction* and
    notes that "one could consider higher order representations for
    capturing such variances ... in future work": a cumulatively
    high-fanout chain may front-load all its criticality, or hide it at
    the tail.  This module implements that future work as a family of
    scoring functions over the chain's member fanouts; the profiler and
    the ablation suite can select any of them. *)

type t =
  | Average_fanout   (** the paper's metric: arithmetic mean *)
  | Geometric_mean   (** punishes low-fanout members multiplicatively *)
  | Tail_weighted    (** linearly up-weights later members: a chain
                         whose *future* is critical deserves priority —
                         the paper's own "look into the future"
                         argument, taken one step further *)
  | Minimum_fanout   (** strictest: the weakest member scores the chain *)

val all : t list
val name : t -> string
val of_string : string -> t option

val score : t -> int list -> float
(** [score metric fanouts] scores a chain from its per-member fanouts
    (in chain order).  All metrics are normalized per instruction, so a
    single threshold is comparable across them.  Returns 0 for the
    empty list. *)

val score_sub : t -> int array -> int -> int -> float
(** [score_sub metric fanouts off len] is [score] of the fanouts
    [fanouts.(off)] .. [fanouts.(off + len - 1)], bit for bit. *)
