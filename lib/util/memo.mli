(** Find-or-add under a lock: the one memoization path for tables that
    domains share. *)

val find_or_add :
  Mutex.t ->
  find:(unit -> 'a option) ->
  add:('a -> unit) ->
  (unit -> 'a) ->
  'a
(** [find_or_add lock ~find ~add compute] returns what [find] finds.
    Otherwise it runs [compute] outside the lock, so domains never
    serialize on the computation, then looks again: if another domain
    added a value meanwhile, that value is returned, else the result is
    added.  The first insert wins, so every caller shares one value.
    [find] and [add] run under [lock]; a [compute] that raises adds
    nothing. *)
