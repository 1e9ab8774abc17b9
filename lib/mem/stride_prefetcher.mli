(** PC-indexed stride prefetcher — the "CLPT prefetcher
    (1024 × 7 bits entries)" attached to the L2 in Table I.

    Each table entry tracks the last address and last stride observed for
    one load PC with a small confidence counter; once confidence is
    established, the next line is prefetched into the target cache. *)

type t

val create : ?entries:int -> ?degree:int -> unit -> t
(** [entries] defaults to 1024, [degree] (lines prefetched ahead) to 1. *)

val copy : t -> t
(** An independent copy: every table entry and the issue counter. *)

val observe : t -> pc:int -> addr:int -> int list
(** [observe t ~pc ~addr] trains on a demand access and returns the
    addresses to prefetch (empty while confidence is low). *)

val issued : t -> int
(** Total prefetch addresses returned so far. *)
