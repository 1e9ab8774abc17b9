(** Domain-pool parallelism for the experiment engine (stdlib-only). *)

module Pool : module type of Pool

val default_jobs : unit -> int
(** See {!Pool.default_jobs}: [Domain.recommended_domain_count ()]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** One-shot order-preserving parallel map on a transient pool
    ([jobs] defaults to {!default_jobs}). *)
