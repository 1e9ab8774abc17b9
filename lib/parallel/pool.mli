(** A fixed-size pool of worker domains with a shared job queue.

    Built on stdlib [Domain]/[Mutex]/[Condition] only.  Worker domains
    are spawned lazily on the first parallel batch; a pool created with
    [jobs = 1] never spawns a domain and executes everything in the
    calling domain, so code written against the pool degrades gracefully
    on single-core hosts ([Domain.recommended_domain_count () = 1]).

    Determinism: [map]/[map_list]/[map_reduce] are order-preserving —
    result [i] is [f input(i)] regardless of which domain evaluated it,
    and [map_reduce] folds the mapped results left-to-right — so a
    parallel run returns exactly what the sequential fallback returns
    whenever [f] itself is deterministic. *)

type t

exception Batch_failure of (exn * string) list
(** Raised by {!run} (and the [map] family) when {e more than one} job
    of a batch failed: every failure, in submission order, paired with
    the backtrace captured where it was caught.  A batch with exactly
    one failure re-raises that exception unchanged. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> unit -> t
(** [jobs] (default {!default_jobs}) is the parallelism width: the pool
    spawns [jobs - 1] worker domains and the submitting domain itself
    works through the queue while its batch is outstanding.  The pool is
    shut down automatically at process exit. *)

val jobs : t -> int

val run : t -> (unit -> unit) list -> unit
(** Execute a batch of jobs on the pool, blocking until all complete.
    If exactly one job raised, its exception is re-raised in the caller
    after the batch drains; if several raised, all of them are
    aggregated into {!Batch_failure} (submission order, with
    backtraces) — no failure is dropped.  Safe to call from inside a
    pool job: the nested caller executes queued work itself rather than
    deadlocking. *)

val map : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map.  The input is split into contiguous
    chunks of [chunk] elements (default [n / (jobs * 8)], at least 1)
    that are load-balanced over the pool. *)

val map_list : ?chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list

val map_reduce :
  ?chunk:int ->
  t ->
  map:('a -> 'b) ->
  reduce:('c -> 'b -> 'c) ->
  init:'c ->
  'a list ->
  'c
(** [map] in parallel, then fold the results in input order. *)

val shutdown : t -> unit
(** Stop and join the worker domains, and drop the pool from the global
    exit registry.  Idempotent.  Pools still live at process exit are
    shut down by one shared [at_exit] callback (a single registry, not
    one closure per pool). *)
