(** EFetch-style instruction prefetcher [71].

    EFetch targets user-event-driven code: it tracks a signature of the
    recent call history and uses it to predict the function that will be
    called next, prefetching that function's leading i-cache lines.  The
    paper cites a 39 KB lookup table; we model a 4096-entry table keyed
    by a hash of the last few call targets. *)

type t

val create : ?line_bytes:int -> unit -> t
(** A cold 4096-entry predictor that prefetches the leading 4 lines of
    the predicted function.  [line_bytes] is the i-cache line size the
    prefetch addresses stride by (default 64, matching Table I — pass
    the configuration's [mem.line_bytes] so prefetches stay
    line-aligned on non-default hierarchies). *)

val on_call : t -> target:int -> int list
(** [on_call t ~target] is invoked when a call to [target] is fetched.
    It returns the addresses to prefetch for the *predicted next* call
    (empty on a cold signature) and then folds [target] into the
    history. *)

val predictions : t -> int
val correct : t -> int
(** Prediction accuracy counters, for reporting. *)
