(** Small numerical-statistics helpers shared by the profiler, the
    experiment harness and the tests. *)

val mean : float list -> float
(** Arithmetic mean; 0 for the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [0,100], linear interpolation between
    order statistics.  Raises [Invalid_argument] on the empty list. *)

val sum : float list -> float

val pct : float -> string
(** Render a fraction as a percentage with one decimal, e.g. ["12.6%"]. *)
