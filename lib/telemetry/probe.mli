(** Pipeline cycle-attribution observer.

    A probe is handed to [Pipeline.Cpu.run_stream ?probe] and fed one
    {!retire} record per committed instruction (plus CDP-marker
    notifications).  It never feeds anything back: the simulator's
    architectural and timing state is bit-identical with or without a
    probe attached — the golden-digest suite runs both ways to prove
    it.

    From the retire stream the probe derives, online and in O(1) per
    event:

    - {b windowed cycle attribution}: an instruction belongs to window
      [commit_cycle / window]; per window and per population (all /
      critical / CritIC-chain-tagged) the instruction count and the
      seven stage-residency fields are summed, and each non-empty
      window's sums are observed into the ["window/<pop>/count"] and
      ["window/<pop>/<stage>"] histograms.  The probe keeps no run
      totals: those are [Pipeline.Stats.stage_all], [stage_critical]
      and [stage_chain].  A population's histogram sums reproduce its
      stage summary field for field — the accounting contract, checked
      by the tests that attach a probe ([test_telemetry.ml],
      [test_pipeline.ml]).
    - {b per-chain latencies}: dispatch of a chain's first member to
      commit of its last, observed into the ["chain/latency"] histogram
      and a per-chain-id ["chain/id/<n>/latency"] histogram.
    - {b trace events}: when created with [~trace], window flushes emit
      stage counter-track samples and chain instances emit async spans
      into the bounded {!Chrome_trace} ring.

    CDP markers retire at decode and never reach the commit stage, so
    they are reported separately ({!cdp_marker}) and appear in the
    registry (["cdp/markers"], ["cdp/decode_cycles"]) but never in the
    windowed populations — mirroring how [Stats] excludes them from the
    stage summaries. *)

type population = All | Critical | Chain

val population_name : population -> string
(** ["all"], ["critical"], ["chain"] — used in metric names. *)

type retire = {
  cycle : int;  (** commit cycle *)
  critical : bool;
  chain_id : int;  (** CritIC chain id, [-1] when untagged *)
  chain_pos : int;
  chain_len : int;
  dispatch : int;  (** rename/dispatch cycle (chain-latency start) *)
  fetch_i : int;
  fetch_rd : int;
  decode : int;
  rename : int;
  issue_wait : int;
  execute : int;
  commit_wait : int;
}

type t

val create : ?window:int -> ?trace:Chrome_trace.t -> unit -> t
(** [window] is the attribution window size in cycles (default 1024,
    min 1).  [trace] attaches a Chrome-trace ring. *)

(** {2 Feeding (called by the simulator)} *)

val retire : t -> retire -> unit
(** Record one committed instruction.  Commit cycles must be
    non-decreasing (in-order retirement guarantees this). *)

val cdp_marker : t -> cycle:int -> penalty:int -> unit
(** A CDP switch marker consumed at decode for [penalty] cycles. *)

val finish : t -> cycles:int -> unit
(** Flush the last open window and record end-of-run metrics.
    Idempotent; further [retire] calls after [finish] are a programming
    error. *)

(** {2 Reading} *)

val registry : t -> Registry.t
(** The probe's metric registry (chain latency histograms, per-window
    stage histograms, cdp counters, run gauges). *)
