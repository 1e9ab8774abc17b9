(** Fig. 12 — sensitivity studies.

    (a) CritIC length: chains of exactly n members for n = 2..9.  Fetch
    savings grow with n while the probability of finding convertible
    chains of exactly that length falls, so speedup peaks at an
    intermediate length (n = 5 in the paper).

    (b) Profiling coverage: the speedup as a function of the fraction
    of the execution that was profiled before compiling.

    Every point is a harness cell: Critic compiled from a database
    variant ({!Critics.Run.variant}: [exact] for (a), [fraction] for
    (b)). *)

type length_point = {
  n : int;
  speedup : float;
  fetch_saving : float;  (** reduction of fetch-idle (supply) cycles,
                             fraction of baseline cycles *)
  coverage : float;      (** dynamic coverage by the selected chains *)
}

type coverage_point = { fraction : float; speedup : float }

type result = { lengths : length_point list; coverage : coverage_point list }

val run : Harness.t -> result
val render : result -> string
