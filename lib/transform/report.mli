(** The transform report: one counter record shared by every nanopass
    and by the composite pipeline.

    Each pass fills only the fields it owns ({!Chain_select} the
    selection counters, {!Hoist} [instrs_hoisted], {!Narrow_convert}
    [instrs_converted], the switch passes their marker counts) and the
    pipeline folds the per-pass reports with {!add}, so the composite
    equals the report of the monolithic reference pass (kept in the
    nanopass tests) field for field — a property the test suite
    locks. *)

type t = {
  sites_considered : int;
  sites_applied : int;
  rejected_stale : int;       (** program no longer matches the profile *)
  rejected_legality : int;    (** hoist would violate a dependence *)
  rejected_convertibility : int;  (** all-or-nothing Thumb rule *)
  instrs_hoisted : int;
  instrs_converted : int;
  cdp_inserted : int;
  switch_branches_inserted : int;
}

val zero : t

val add : t -> t -> t
(** Field-wise sum; [zero] is its identity. *)

val fields : t -> (string * int) list
(** Every counter with its name, in declaration order — the
    field-for-field comparison hook used by the pass-algebra tests. *)
