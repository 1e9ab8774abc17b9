(** Simulation results.

    Per-instruction residencies are aggregated into stage summaries for
    three populations: all instructions, critical (high-fanout)
    instructions — the paper's Fig. 3 population — and CritIC-tagged
    instructions (after the compiler pass).  Fetch time is split into
    the paper's two components: [fetch_i] (F.StallForI — waiting for
    supply: i-cache misses, branch redirects) and [fetch_rd]
    (F.StallForR+D — waiting to drain into decode against
    back-pressure). *)

type stage_summary = {
  count : int;          (** instructions in this population *)
  fetch_i : int;        (** cycles: F.StallForI *)
  fetch_rd : int;       (** cycles: F.StallForR+D *)
  decode : int;
  rename : int;
  issue_wait : int;     (** dispatch → issue (dependences + resources) *)
  execute : int;        (** issue → completion *)
  commit_wait : int;    (** completion → commit (ROB residency) *)
}

val empty_summary : stage_summary

val summary_shares : stage_summary -> (string * float) list
(** Normalized per-stage shares, in pipeline order.  An empty population
    (zero total stage cycles) yields all-zero shares. *)

type t = {
  cycles : int;
  committed_total : int;   (** everything that retired, incl. overhead *)
  committed_work : int;    (** work instructions (excl. CDP markers and
                               transform-inserted switch branches) *)
  thumb_committed : int;   (** retired instructions in 16-bit format *)
  cdp_markers : int;       (** CDP switch markers consumed at decode *)
  critical_count : int;    (** committed instructions with fanout ≥
                               threshold *)
  fetch_idle_supply : int; (** cycles fetch delivered nothing for supply
                               reasons (i-cache miss, redirect) *)
  fetch_idle_backpressure : int;
      (** cycles fetch delivered nothing because the fetch buffer was
          full *)
  stage_all : stage_summary;
  stage_critical : stage_summary;
  stage_chain : stage_summary;
  bpu : Bpu.Predictor.stats;
  l1i : Mem.Cache.stats;
  l1d : Mem.Cache.stats;
  l2 : Mem.Cache.stats;
  dram : Mem.Dram.stats;
  efetch_predictions : int;
  efetch_correct : int;
  fetch_bytes : int;
      (** instruction bytes delivered by fetch groups *)
  fetch_groups : int;
      (** fetch groups formed (cycles in which fetch delivered ≥ 1
          instruction) *)
  iopp_misses : int;
      (** opportunity mode ({!Mem.Hierarchy.config.l1i_opportunity}):
          i-fetch line transitions that missed the L1i; 0 when the mode
          is off *)
  iopp_predictable : int;
      (** of {!iopp_misses}, those a last-successor predictor over prior
          fetch history would have named — the Zhao-style upper bound on
          history-based instruction prefetching *)
}
(** New fields are appended at the end: the golden-digest tests marshal
    a projection tuple of the seed-era prefix, which pins its
    declaration order. *)

val ipc : t -> float
(** Work instructions per cycle. *)

val bytes_per_cycle : t -> float
(** Fetch bandwidth actually used: instruction bytes delivered per
    simulated cycle. *)

val critical_fraction : t -> float
(** Share of committed work instructions classified critical. *)

val opportunity_fraction : t -> float
(** [iopp_predictable / iopp_misses]; 0 when no misses were observed
    (in particular whenever opportunity mode was off). *)

val render : t -> string
(** Multi-line human-readable report. *)
