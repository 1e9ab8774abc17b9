(** Typed metric registry: counters, gauges and log-bucketed histograms.

    The registry is the aggregation substrate of the observability
    layer: every {!Probe} owns one, the experiment harness merges the
    per-job registries of a sweep, and bench embeds histogram summaries
    in BENCH_results.json.  Design constraints, in order:

    - {b O(1) record.}  [incr]/[add]/[set]/[observe] touch one mutable
      record; [observe] additionally computes a power-of-two bucket
      index with a constant number of shifts.  Recording never
      allocates.
    - {b Deterministic snapshots.}  [snapshot]/[to_json]/[render] sort
      metrics by name, so two registries with equal contents produce
      byte-identical output regardless of creation or merge order.
    - {b Order-insensitive merge.}  Counter merge adds, gauge merge
      takes the maximum, histogram merge adds bucket-wise — all
      commutative and associative, so folding per-job registries in any
      pool completion order yields the same aggregate (the qcheck suite
      locks this down).

    A name is permanently bound to the kind it was first created with;
    re-requesting it with a different kind raises [Invalid_argument]. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

(** {2 Recording} *)

val counter : t -> string -> counter
(** Get or create the counter [name] (monotone sum; merge adds). *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : t -> string -> gauge
(** Get or create the gauge [name] (last-set value; merge takes max, so
    use gauges for level/high-water readings where max is the right
    cross-job aggregate). *)

val set : gauge -> int -> unit
val set_max : gauge -> int -> unit
(** [set_max g v] is [set g v] only when [v] exceeds the current value. *)

val histogram : t -> string -> histogram
(** Get or create the histogram [name]: 64 power-of-two buckets (bucket
    [b >= 1] holds values in [[2^(b-1), 2^b - 1]], bucket 0 holds
    [v <= 0]), exact count/sum/max. *)

val observe : histogram -> int -> unit

val hist_count : histogram -> int
val hist_max : histogram -> int

val quantile : histogram -> float -> int
(** [quantile h q] for [q] in [[0, 1]]: the upper bound of the bucket
    holding the [ceil (q * count)]-th smallest observation, capped at
    the exact maximum.  0 for an empty histogram.  p50/p90/p99 are
    [quantile h 0.5] etc. *)

(** {2 Aggregation and output} *)

val merge_into : into:t -> t -> unit
(** Fold [src] into [into]: counters add, gauges max, histograms add
    bucket-wise.  Metrics missing from [into] are created.  Raises
    [Invalid_argument] if a name is bound to different kinds, and then
    [into] is unchanged: a merge never half-applies. *)

val merger : into:t -> t -> (unit -> unit, string) result
(** [merge_into] split at its check: [Error] with [merge_into]'s
    message if it would raise, otherwise [Ok merge], where [merge ()]
    is [merge_into ~into src].  Nothing changes until [merge] runs, so
    a caller can decide on the check and apply later; every name is
    looked up once, so [merge] must run before [into] gains another
    metric. *)

type value =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of {
      count : int;
      sum : int;
      max : int;
      p50 : int;
      p90 : int;
      p99 : int;
    }

val snapshot : t -> (string * value) list
(** Every metric, sorted by name. *)

val to_json : t -> string
(** Deterministic JSON object with ["counters"], ["gauges"] and
    ["histograms"] members, names sorted.  Equal snapshots produce
    byte-identical strings. *)

val render : t -> string
(** Human-readable two-column table (sorted). *)

val to_bytes : t -> string
(** Full-fidelity deterministic serialization (every histogram bucket,
    metrics sorted by name): two registries with equal contents produce
    byte-identical strings, so a [to_bytes] comparison is a state
    equality check.  This is the wire and checkpoint format of the
    profile-ingest service — unlike {!to_json}, it round-trips, except
    that a name holding ['\n'] does not decode (see {!of_bytes}).

    The bytes are ["CRTREG01\n"], then one line per metric in
    [String.compare] order of names: [c L:NAME V], [g L:NAME V] or
    [h L:NAME COUNT SUM MAX B0 ... B63], with [L] the name's length and
    every integer in decimal. *)

val of_bytes : string -> (t, string) result
(** Parse {!to_bytes} output.  [Error] (never an exception) on any
    framing, magic or arity violation — a torn or corrupted upload
    payload must be rejectable, not a crash.

    The language accepted is exactly the one earlier builds accepted,
    error strings included, quirks and all: a WAL holds payloads that
    those builds acknowledged, and replay must accept every one of
    them.
    - The first line is ["CRTREG01"].  Every line, the last included,
      ends at the first ['\n'] after its start, so a name cannot hold
      one: its frame then overruns the line (["bad name frame"]).
    - A metric line is a kind byte, one byte that is never looked at,
      [L:], the [L] bytes of the name, then integers.  Integers are
      separated by one or more spaces, and none is needed between the
      name and the first.  [L] and every integer are whatever
      [int_of_string_opt] reads: a sign, a [0x], [0o], [0b] or [0u]
      prefix and [_] separators are accepted, a tab is not.
    - Every integer of a line is parsed, and may fail with
      ["bad integer ..."], before the kind and the count are checked:
      [c] and [g] take one integer, [h] takes 67.  Anything else fails
      with ["bad metric line kind K"].
    - A repeated name adds (counter) or overwrites (gauge, histogram).
      A name given two kinds fails with the [Invalid_argument] message
      of {!counter}.

    Plain decimal tokens (an optional [-] and 1 to 18 digits) are read
    in place and the rest handed to [int_of_string_opt], so a decode
    allocates little more than the registry it returns. *)

val is_empty : t -> bool
