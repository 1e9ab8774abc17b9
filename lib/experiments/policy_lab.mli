(** The front-end policy laboratory (ROADMAP item 1): how much of the
    CritICs win survives a smarter i-cache?

    Sweeps L1i replacement policy ({!Mem.Replacement.kind}) ×
    instruction prefetcher ({!Mem.Hierarchy.iprefetch}) × app, running
    Baseline and Critic under every cell's machine and reporting the
    baseline's fetch-stall cycles, the CritIC speedup {e under that
    machine}, and the retention — cell speedup relative to the default
    (lru + next-line) cell, i.e. the fraction of the paper's win a
    smarter front end leaves standing.

    A separate opportunity row per app runs the baseline with
    {!Mem.Hierarchy.config.l1i_opportunity} on: the Zhao-style upper
    bound on how many i-cache misses any history-based prefetcher could
    have covered. *)

type cell = {
  policy : Mem.Replacement.kind;
  prefetch : Mem.Hierarchy.iprefetch;
  app : string;
  base_cycles : int;      (** baseline cycles under this machine *)
  fetch_stall : int;      (** baseline supply-side fetch-idle cycles *)
  speedup : float;        (** Critic vs Baseline, both under this machine *)
  retention : float;      (** [speedup /. speedup(lru, next_line)];
                              0 when the default cell shows no win *)
}

type opportunity = {
  opp_app : string;
  misses : int;           (** i-fetch line transitions missing the L1i *)
  predictable : int;      (** of those, last-successor predictable *)
  fraction : float;
}

type result = {
  apps : string list;
  cells : cell list;      (** app-major, then policy, then prefetcher *)
  opps : opportunity list;
}

val config :
  Mem.Replacement.kind -> Mem.Hierarchy.iprefetch -> Pipeline.Config.t
(** Table I with the given i-side policy and prefetcher.  For
    [(Lru, Ip_next_line)] this is structurally equal to
    {!Pipeline.Config.table_i}, so the default cell shares the
    harness's memoized baseline simulations bit for bit. *)

val jobs : ?apps:Workload.Profile.t list -> unit -> Harness.job list

val run : ?apps:Workload.Profile.t list -> Harness.t -> result
(** Defaults to the same three representative mobile apps as
    {!Ablations}. *)

val render : result -> string
