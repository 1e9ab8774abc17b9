(** Chrome/Perfetto trace-event exporter over a bounded ring.

    Events accumulate in a fixed-capacity ring: once full, the oldest
    events are overwritten (count available via {!dropped}), so a trace
    of an arbitrarily long run stays O(capacity) in memory — the
    Perfetto UI cares about the most recent window anyway.

    The export format is the Chrome trace-event JSON object form
    ([{"traceEvents": [...]}]), with one cycle mapped to one
    microsecond of trace time:

    - stage-occupancy tracks are ["C"] (counter) events, one track per
      stage name, value = stall cycles attributed in that window;
    - CritIC chain instances are ["b"]/["e"] async spans in category
      ["chain"], one unique [id] per instance so overlapping instances
      of the same chain render as separate slices.

    Ring truncation can orphan the begin of an async pair; orphans are
    filtered at export so emitted JSON always validates. *)

type t

val create : ?capacity:int -> unit -> t
(** Ring of at most [capacity] events (default 65536, min 16). *)

val counter : t -> ts:int -> name:string -> value:int -> unit
(** One sample on counter track [name] at cycle [ts]. *)

val async_begin : t -> ts:int -> name:string -> id:int -> unit
val async_end : t -> ts:int -> name:string -> id:int -> unit
(** Async span in category ["chain"]; pair by identical [name]/[id]. *)

val length : t -> int
(** Events currently held (after ring truncation). *)

val dropped : t -> int
(** Events overwritten by ring wrap-around. *)

val to_json : t -> string
(** Deterministic trace JSON; orphaned async begins/ends (whose partner
    fell off the ring) are dropped from the output. *)

val write_file : t -> string -> unit
(** {!to_json} and a newline, written with {!Util.Atomic_io.write}
    (temp file + rename): a write that fails installs nothing. *)

val validate : string -> (int, string) result
(** Validate trace JSON text: parses, every event carries
    name/ph/ts/pid/tid, counter and instant timestamps are monotonically
    non-decreasing per track, and every async begin has a matching end
    with [e.ts >= b.ts] (and vice versa).  [Ok n] gives the event
    count. *)
