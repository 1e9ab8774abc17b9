(** Empirical distributions: integer histograms.

    Used to report the paper's distribution figures (Fig. 1b chain-gap
    histogram, Fig. 5 IC length and spread). *)

module Histogram : sig
  type t
  (** Counts of integer-valued observations. *)

  val create : unit -> t
  val add : t -> int -> unit
  val addn : t -> int -> int -> unit
  (** [addn h v n] records [n] occurrences of value [v]. *)

  val count : t -> int
  (** Total number of observations. *)

  val get : t -> int -> int
  (** Occurrences of one value. *)

  val max_value : t -> int
  (** Largest observed value; 0 when empty. *)

  val bins : t -> (int * int) list
  (** All (value, count) pairs in increasing value order. *)

  val mean : t -> float
end
