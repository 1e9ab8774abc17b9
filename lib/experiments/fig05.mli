(** Fig. 5 — why software identification is feasible for mobile apps.

    (a) Instruction-chain length and dynamic spread: SPEC chains run to
    hundreds of instructions spread over thousands (loop-carried
    dependences), while mobile chains are tens of instructions spread
    over at most a few hundred — short and local enough for offline
    profiling and per-block compilation.

    (b) CDF of dynamic-stream coverage by unique CritIC sequences, and
    the same CDF restricted to fully Thumb-convertible sequences: the
    two curves nearly coincide (the paper reports only 4.5 % of unique
    sequences are unrepresentable). *)

type suite_row = {
  suite : string;
  max_length : int;
  p99_length : float;
  mean_length : float;
  max_spread : int;
  p99_spread : float;
}

type coverage_point = { rank_fraction : float; coverage : float }

type result = {
  rows : suite_row list;
  mobile_coverage : coverage_point list;      (** Fig. 5b, all chains *)
  mobile_convertible : coverage_point list;   (** Fig. 5b, convertible *)
  convertible_site_fraction : float;
      (** share of unique CritIC sites that are fully convertible *)
}

val run : Harness.t -> result
(** Fig. 5a profiles each app with a 2048-instruction analysis window
    (a {!Critics.Run.variant} database, stored by the harness) — large
    enough to expose SPEC's long loop-carried chains; Fig. 5b reads the
    prepared databases. *)

val render : result -> string
