type issue_policy = Oldest_first | Critical_first

type t = {
  width : int;
  fetch_bytes : int;
  fetch_queue : int;
  decode_queue : int;
  rob : int;
  iq : int;
  int_alus : int;
  mul_units : int;
  mem_ports : int;
  fp_units : int;
  branch_units : int;
  mispredict_penalty : int;
  cdp_decode_penalty : int;
  mem : Mem.Hierarchy.config;
  bpu : Bpu.Predictor.kind;
  issue_policy : issue_policy;
  critical_load_prefetch : bool;
  efetch : bool;
  wrong_path_fetch : bool;
  fanout_critical_threshold : int;
}

let table_i =
  {
    width = 4;
    fetch_bytes = 16;
    fetch_queue = 24;
    decode_queue = 12;
    rob = 128;
    iq = 48;
    int_alus = 3;
    mul_units = 1;
    mem_ports = 2;
    fp_units = 2;
    branch_units = 1;
    mispredict_penalty = 10;
    cdp_decode_penalty = 1;
    mem = Mem.Hierarchy.table_i;
    bpu = Bpu.Predictor.default_kind;
    issue_policy = Oldest_first;
    critical_load_prefetch = false;
    efetch = false;
    wrong_path_fetch = false;
    fanout_critical_threshold = 4;
  }

let with_2x_fd t =
  {
    t with
    fetch_bytes = t.fetch_bytes * 2;
    fetch_queue = t.fetch_queue * 2;
    decode_queue = t.decode_queue * 2;
    mem = { t.mem with l1i_hit = max 1 (t.mem.l1i_hit / 2) };
  }

let with_4x_icache t =
  { t with mem = { t.mem with l1i_size = t.mem.l1i_size * 4 } }

let with_efetch t = { t with efetch = true }
let with_perfect_branch t = { t with bpu = Bpu.Predictor.Perfect }
let with_backend_prio t = { t with issue_policy = Critical_first }
let with_critical_load_prefetch t = { t with critical_load_prefetch = true }

let all_hw t =
  t |> with_4x_icache |> with_efetch |> with_perfect_branch
  |> with_backend_prio

let describe t =
  let b = Printf.sprintf in
  [
    ("pipeline width", b "%d-wide" t.width);
    ("fetch group", b "%d bytes/cycle" t.fetch_bytes);
    ("ROB", b "%d entries" t.rob);
    ("issue queue", b "%d entries" t.iq);
    ( "functional units",
      b "%d ALU, %d mul/div, %d mem, %d FP, %d branch" t.int_alus t.mul_units
        t.mem_ports t.fp_units t.branch_units );
    ( "i-cache",
      b "%dKB %d-way, %d-cycle hit" (t.mem.l1i_size / 1024) t.mem.l1i_assoc
        t.mem.l1i_hit );
  ]
  (* Policy-laboratory knobs are described only off their defaults, so
     the Table I header — part of the bench's byte-locked stdout —
     is unchanged for every seed configuration. *)
  @ (if
       t.mem.l1i_policy = Mem.Replacement.Lru
       && t.mem.l1i_prefetch = Mem.Hierarchy.Ip_next_line
       && not t.mem.l1i_opportunity
     then []
     else
       [
         ( "i-cache policy",
           b "%s replacement, %s prefetch%s"
             (Mem.Replacement.kind_name t.mem.l1i_policy)
             (Mem.Hierarchy.iprefetch_name t.mem.l1i_prefetch)
             (if t.mem.l1i_opportunity then ", opportunity counters" else "")
         );
       ])
  @ [
    ( "d-cache",
      b "%dKB %d-way, %d-cycle hit" (t.mem.l1d_size / 1024) t.mem.l1d_assoc
        t.mem.l1d_hit );
    ( "L2",
      b "%dMB %d-way, %d-cycle hit, prefetcher %s"
        (t.mem.l2_size / 1024 / 1024)
        t.mem.l2_assoc t.mem.l2_hit
        (if t.mem.l2_prefetcher then "on" else "off") );
    ( "DRAM",
      b "LPDDR3, %d ch / %d ranks / %d banks, tCL=tRP=tRCD=%d cycles"
        t.mem.dram.channels t.mem.dram.ranks_per_channel
        t.mem.dram.banks_per_rank t.mem.dram.tcl_cycles );
    ( "branch predictor",
      match t.bpu with
      | Bpu.Predictor.Two_level { entries; history_bits } ->
        b "2-level, %d entries, %d history bits" entries history_bits
      | Bpu.Predictor.Static_taken -> "static taken"
      | Bpu.Predictor.Perfect -> "perfect" );
    ("mispredict penalty", b "%d cycles" t.mispredict_penalty);
    ( "issue policy",
      match t.issue_policy with
      | Oldest_first -> "oldest-first"
      | Critical_first -> "critical-first (BackendPrio)" );
  ]
