(** The full memory hierarchy of the simulated SoC: split L1 (i-cache /
    d-cache), unified L2 with the CLPT stride prefetcher, and LPDDR3
    DRAM.  Latencies are returned to the pipeline; access counts feed the
    energy model.

    Prefetches fill asynchronously: a prefetched line becomes usable only
    once its miss path would have completed, and a demand access arriving
    earlier pays the remaining cycles.

    The i-side is a policy laboratory: the L1i replacement policy
    ({!Replacement.kind}) and the instruction prefetcher ({!iprefetch})
    are both configurable, and an opt-in opportunity mode characterizes
    how predictable i-cache misses were from prior fetch history. *)

type t

type iprefetch =
  | Ip_none  (** no instruction prefetch *)
  | Ip_next_line
      (** next-line prefetch on i-cache accesses — standard on the
          Cortex-class cores the paper targets *)
  | Ip_fetch_directed
      (** stride-on-fetch: a stride detector over the demand fetch-line
          stream runs two lines ahead at confidence *)

val iprefetch_name : iprefetch -> string
val all_iprefetch : iprefetch list

type config = {
  line_bytes : int;
  l1i_size : int;
  l1i_assoc : int;
  l1i_hit : int;   (** i-cache hit latency, cycles *)
  l1d_size : int;
  l1d_assoc : int;
  l1d_hit : int;
  l2_size : int;
  l2_assoc : int;
  l2_hit : int;
  l2_prefetcher : bool;  (** the CLPT stride prefetcher of Table I *)
  l1i_policy : Replacement.kind;  (** L1i replacement policy *)
  l1i_prefetch : iprefetch;
  l1i_opportunity : bool;
      (** maintain the Zhao-style prefetch-opportunity counters
          ({!iopp_misses} / {!iopp_predictable}); off by default so the
          demand path stays untouched *)
  dram : Dram.config;
}

val table_i : config
(** Table I baseline: 2-way 32 KB i-cache and 64 KB d-cache with 2-cycle
    hits; 8-way 2 MB L2 with 10-cycle hits and the CLPT prefetcher;
    LPDDR3 DRAM.  LRU everywhere, next-line i-prefetch. *)

type level = L1 | L2 | Main

type outcome = { level : level; latency : int }
(** [level] is where the demand access was served; [latency] is the
    total cycles until data return. *)

val create : config -> t
val config : t -> config

val copy : t -> t
(** An independent deep copy: every cache's lines, dirty bits,
    replacement state and counters, the DRAM banks and counters, the
    prefetcher entries, the in-flight prefetch tables and the
    fetch-history state.  Whatever runs on the copy — or on the
    original — leaves the other unchanged, and the two answer every
    later access identically. *)

val ifetch : t -> now:int -> int -> outcome
(** Instruction fetch of the line containing the address. *)

val dread : t -> now:int -> pc:int -> int -> outcome
(** Demand data read ([pc] trains the L2 prefetcher). *)

val dwrite : t -> now:int -> pc:int -> int -> outcome

val ifetch_lat : t -> now:int -> int -> int
(** Allocation-free {!ifetch}: same state effects, returning only the
    latency. *)

val ifetch_lat_hinted : t -> now:int -> hint:int -> int -> int
(** {!ifetch_lat} carrying the fetched block's temperature (0 hot ..
    3 cold; negative = unknown) as the L1i replacement fill hint —
    the TRRIP feedback path.  [ifetch_lat] is this with [~hint:(-1)]. *)

val dread_lat : t -> now:int -> pc:int -> int -> int
val dwrite_lat : t -> now:int -> pc:int -> int -> int

val prefetch_i : t -> now:int -> int -> unit
(** Start an instruction-side prefetch into the i-cache (EFetch). *)

val prefetch_d : t -> now:int -> pc:int -> int -> unit
(** Start a data-side prefetch into the d-cache (critical-load
    prefetching baseline). *)

val touch_i : t -> int -> unit
(** Install the line containing the address into i-cache and L2 without
    counting statistics — used to warm the hierarchy to steady state
    before measurement (the paper measures minutes-old app executions,
    not cold starts). *)

val touch_d : t -> int -> unit

val invalidate_all : t -> unit
(** Drop all cached state: every line (and dirty bit) in all three
    caches, all in-flight prefetches, and the fetch-history state of
    the fetch-directed prefetcher and opportunity tracker.  A
    warmed-then-invalidated hierarchy produces no phantom writebacks.
    Statistics counters are left untouched. *)

val iopp_misses : t -> int
(** Opportunity mode: i-fetch line transitions that missed the L1i
    (0 unless [config.l1i_opportunity]). *)

val iopp_predictable : t -> int
(** Of {!iopp_misses}, those whose line a last-successor predictor over
    prior fetch history would have named — the Zhao-style upper bound
    on what history-based instruction prefetching could cover. *)

val l1i_stats : t -> Cache.stats
val l1d_stats : t -> Cache.stats
val l2_stats : t -> Cache.stats
val dram_stats : t -> Dram.stats
