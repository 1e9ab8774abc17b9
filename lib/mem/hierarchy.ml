type iprefetch = Ip_none | Ip_next_line | Ip_fetch_directed

let iprefetch_name = function
  | Ip_none -> "none"
  | Ip_next_line -> "next_line"
  | Ip_fetch_directed -> "fetch_directed"

let all_iprefetch = [ Ip_none; Ip_next_line; Ip_fetch_directed ]

type config = {
  line_bytes : int;
  l1i_size : int;
  l1i_assoc : int;
  l1i_hit : int;
  l1d_size : int;
  l1d_assoc : int;
  l1d_hit : int;
  l2_size : int;
  l2_assoc : int;
  l2_hit : int;
  l2_prefetcher : bool;
  l1i_policy : Replacement.kind;
  l1i_prefetch : iprefetch;
  l1i_opportunity : bool;
  dram : Dram.config;
}

let table_i =
  {
    line_bytes = 64;
    l1i_size = 32 * 1024;
    l1i_assoc = 2;
    l1i_hit = 2;
    l1d_size = 64 * 1024;
    l1d_assoc = 4;
    l1d_hit = 2;
    l2_size = 2 * 1024 * 1024;
    l2_assoc = 8;
    l2_hit = 10;
    l2_prefetcher = true;
    l1i_policy = Replacement.Lru;
    l1i_prefetch = Ip_next_line;
    l1i_opportunity = false;
    dram = Dram.default_config;
  }

type level = L1 | L2 | Main

type outcome = { level : level; latency : int }

(* Tables keyed by line address.  Lines are line-aligned, so an
   identity hash would leave the low bits — the ones the table indexes
   buckets with — all zero; the key is mixed first (SplitMix64's
   finalizer, with its constants cut to the native 63-bit int). *)
module Line_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x =
    let x = (x lxor (x lsr 30)) * 0x3F58476D1CE4E5B9 in
    let x = (x lxor (x lsr 27)) * 0x14D049BB133111EB in
    x lxor (x lsr 31)
end)

type t = {
  config : config;
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  dram : Dram.t;
  prefetcher : Stride_prefetcher.t option;
  (* In-flight fills per cache: line address -> cycle the line becomes
     usable.  Entries are installed by prefetches and consumed (or
     expired) by demand accesses. *)
  pending_l1i : int Line_tbl.t;
  pending_l1d : int Line_tbl.t;
  pending_l2 : int Line_tbl.t;
  (* Level that served the most recent demand access, readable without
     allocating an [outcome] record (the pipeline only needs the
     latency; the record API below is a wrapper over this field). *)
  mutable last_level : level;
  (* Fetch-directed i-prefetch: a single stride detector over the
     demand-fetch line stream (the i-side analogue of the per-pc CLPT
     entry — fetch lines form one stream, so one detector suffices). *)
  mutable fd_last_line : int;
  mutable fd_stride : int;
  mutable fd_conf : int;
  (* Prefetch-opportunity characterization (Zhao-style upper bound):
     of the i-fetch line transitions that miss the L1i, how many went
     to the line a last-successor predictor trained on prior fetch
     history would have named?  Purely observational; only maintained
     when [config.l1i_opportunity]. *)
  mutable opp_prev_line : int;
  opp_succ : int Line_tbl.t;
  mutable opp_misses : int;
  mutable opp_predictable : int;
}

let create config =
  {
    config;
    l1i =
      Cache.create ~policy:config.l1i_policy ~name:"l1i"
        ~size_bytes:config.l1i_size ~assoc:config.l1i_assoc
        ~line_bytes:config.line_bytes ();
    l1d =
      Cache.create ~name:"l1d" ~size_bytes:config.l1d_size
        ~assoc:config.l1d_assoc ~line_bytes:config.line_bytes ();
    l2 =
      Cache.create ~name:"l2" ~size_bytes:config.l2_size
        ~assoc:config.l2_assoc ~line_bytes:config.line_bytes ();
    dram = Dram.create ~config:config.dram ();
    prefetcher =
      (if config.l2_prefetcher then Some (Stride_prefetcher.create ())
       else None);
    pending_l1i = Line_tbl.create 64;
    pending_l1d = Line_tbl.create 64;
    pending_l2 = Line_tbl.create 64;
    last_level = L1;
    fd_last_line = -1;
    fd_stride = 0;
    fd_conf = 0;
    opp_prev_line = -1;
    opp_succ = Line_tbl.create 256;
    opp_misses = 0;
    opp_predictable = 0;
  }

let config t = t.config

let copy t =
  {
    t with
    l1i = Cache.copy t.l1i;
    l1d = Cache.copy t.l1d;
    l2 = Cache.copy t.l2;
    dram = Dram.copy t.dram;
    prefetcher = Option.map Stride_prefetcher.copy t.prefetcher;
    pending_l1i = Line_tbl.copy t.pending_l1i;
    pending_l1d = Line_tbl.copy t.pending_l1d;
    pending_l2 = Line_tbl.copy t.pending_l2;
    opp_succ = Line_tbl.copy t.opp_succ;
  }

(* If a prefetch for [line] is in flight, the demand access waits for the
   remaining cycles instead of redoing the whole miss path.  -1 means no
   fill was pending (an exception match instead of [find_opt] so the
   per-access path never allocates a [Some]; most tables are empty on
   most accesses, which skips the lookup).  On consumption the fill
   installs into [cache] and may displace a dirty line: the caller must
   absorb that victim before its next access clears the report. *)
let pending_wait pending cache ~now line =
  if Line_tbl.length pending = 0 then -1
  else
    match Line_tbl.find pending line with
    | exception Not_found -> -1
    | ready ->
      Line_tbl.remove pending line;
      Cache.fill cache line;
      max 0 (ready - now)

(* A dirty line displaced from the L2 drains to DRAM through the write
   buffer: it consumes DRAM bandwidth but is off the load's critical
   path, so no latency is charged to the demand access.  Reads the L2's
   victim fields, so it must run before the next L2 access. *)
let absorb_l2_victim t ~now =
  if Cache.victim_addr t.l2 >= 0 && Cache.victim_dirty t.l2 then
    ignore (Dram.access t.dram ~now ~write:true (Cache.victim_addr t.l2))

(* L2 lookup (with DRAM fallback) shared by both L1 miss paths.
   Returns cycles beyond the L1 hit time and records the serving level
   in [last_level]. *)
let l2_path t ~now ~write line =
  let c = t.config in
  let wait = pending_wait t.pending_l2 t.l2 ~now line in
  if wait >= 0 then begin
    (* The consumed fill may itself have displaced a dirty L2 line. *)
    absorb_l2_victim t ~now;
    t.last_level <- L2;
    c.l2_hit + wait
  end
  else begin
    let hit = Cache.access_demand ~write:false t.l2 line in
    absorb_l2_victim t ~now;
    if hit then begin
      t.last_level <- L2;
      c.l2_hit
    end
    else begin
      t.last_level <- Main;
      c.l2_hit + Dram.access t.dram ~now:(now + c.l2_hit) ~write line
    end
  end

(* A dirty L1d victim writes back into the L2 (again off the critical
   path); the L2 may in turn displace a dirty line of its own.  Reads
   [l1]'s victim fields, so it must run before the next access to that
   cache; i-side victims are clean by construction and ignored. *)
let absorb_l1_victim t ~now ~is_data l1 =
  if is_data && Cache.victim_addr l1 >= 0 && Cache.victim_dirty l1 then begin
    let addr = Cache.victim_addr l1 in
    ignore (Cache.access_demand ~write:true t.l2 addr);
    absorb_l2_victim t ~now
  end

let train_prefetcher t ~now ~pc line =
  match t.prefetcher with
  | None -> ()
  | Some p ->
    let addrs = Stride_prefetcher.observe p ~pc ~addr:line in
    List.iter
      (fun addr ->
        let pline = Cache.line_of t.l2 addr in
        if
          (not (Cache.probe t.l2 pline))
          && not (Line_tbl.mem t.pending_l2 pline)
        then begin
          let lat = Dram.access t.dram ~now ~write:false pline in
          Line_tbl.replace t.pending_l2 pline (now + lat)
        end)
      addrs

(* Latency-only demand access: the serving level lands in [last_level],
   nothing is allocated.  The [outcome]-returning API below wraps it.
   [hint] is the L1's replacement fill hint (block temperature for
   TRRIP; -1 = none). *)
let demand_lat t ~now ~pc ~write ~hint ~l1 ~l1_hit ~pending addr =
  let line = Cache.line_of l1 addr in
  let is_data = l1 == t.l1d in
  let wait = pending_wait pending l1 ~now line in
  if wait >= 0 then begin
    (* Absorb the consumed fill's victim before the hit below clears
       the victim report. *)
    absorb_l1_victim t ~now ~is_data l1;
    ignore (Cache.access_demand_hinted ~write ~hint l1 line);
    t.last_level <- L1;
    l1_hit + wait
  end
  else begin
    let hit = Cache.access_demand_hinted ~write ~hint l1 line in
    absorb_l1_victim t ~now ~is_data l1;
    if hit then begin
      t.last_level <- L1;
      l1_hit
    end
    else begin
      let beyond = l2_path t ~now ~write:false line in
      if t.last_level = Main then train_prefetcher t ~now ~pc line;
      l1_hit + beyond
    end
  end

let prefetch ~l1 ~pending t ~now ~write addr =
  let line = Cache.line_of l1 addr in
  if (not (Cache.probe l1 line)) && not (Line_tbl.mem pending line) then begin
    let beyond = l2_path t ~now ~write line in
    Line_tbl.replace pending line (now + beyond)
  end

(* Observe a demand-fetch line for the Zhao-style opportunity bound: a
   transition that misses counts as predictable when the last-successor
   table already mapped the previous line to this one.  Runs before the
   demand access so residency is judged pre-fill. *)
let opportunity_observe t line =
  if line <> t.opp_prev_line then begin
    if
      (not (Cache.probe t.l1i line)) && not (Line_tbl.mem t.pending_l1i line)
    then begin
      t.opp_misses <- t.opp_misses + 1;
      match Line_tbl.find t.opp_succ t.opp_prev_line with
      | exception Not_found -> ()
      | succ -> if succ = line then t.opp_predictable <- t.opp_predictable + 1
    end;
    if t.opp_prev_line >= 0 then
      Line_tbl.replace t.opp_succ t.opp_prev_line line;
    t.opp_prev_line <- line
  end

(* Fetch-directed prefetch: train the stride detector on the demand
   line stream and, at confidence, run two strides ahead of the fetch
   front (same threshold/saturation discipline as Stride_prefetcher). *)
let fetch_directed t ~now line =
  if line <> t.fd_last_line then begin
    if t.fd_last_line >= 0 then begin
      let stride = line - t.fd_last_line in
      if stride = t.fd_stride then begin
        if t.fd_conf < 3 then t.fd_conf <- t.fd_conf + 1
      end
      else begin
        t.fd_stride <- stride;
        t.fd_conf <- 1
      end
    end;
    t.fd_last_line <- line;
    if t.fd_conf >= 2 && t.fd_stride <> 0 then begin
      prefetch ~l1:t.l1i ~pending:t.pending_l1i t ~now ~write:false
        (line + t.fd_stride);
      prefetch ~l1:t.l1i ~pending:t.pending_l1i t ~now ~write:false
        (line + (2 * t.fd_stride))
    end
  end

let ifetch_lat_hinted t ~now ~hint addr =
  if t.config.l1i_opportunity then
    opportunity_observe t (Cache.line_of t.l1i addr);
  let lat =
    demand_lat t ~now ~pc:addr ~write:false ~hint ~l1:t.l1i
      ~l1_hit:t.config.l1i_hit ~pending:t.pending_l1i addr
  in
  (match t.config.l1i_prefetch with
  | Ip_none -> ()
  | Ip_next_line ->
    (* The prefetch's own L2 walk must not clobber the demand level. *)
    let level = t.last_level in
    prefetch ~l1:t.l1i ~pending:t.pending_l1i t ~now ~write:false
      (addr + t.config.line_bytes);
    t.last_level <- level
  | Ip_fetch_directed ->
    let level = t.last_level in
    fetch_directed t ~now (Cache.line_of t.l1i addr);
    t.last_level <- level);
  lat

let ifetch_lat t ~now addr = ifetch_lat_hinted t ~now ~hint:(-1) addr

let dread_lat t ~now ~pc addr =
  demand_lat t ~now ~pc ~write:false ~hint:(-1) ~l1:t.l1d
    ~l1_hit:t.config.l1d_hit ~pending:t.pending_l1d addr

let dwrite_lat t ~now ~pc addr =
  demand_lat t ~now ~pc ~write:true ~hint:(-1) ~l1:t.l1d
    ~l1_hit:t.config.l1d_hit ~pending:t.pending_l1d addr

let ifetch t ~now addr =
  let latency = ifetch_lat t ~now addr in
  { level = t.last_level; latency }

let dread t ~now ~pc addr =
  let latency = dread_lat t ~now ~pc addr in
  { level = t.last_level; latency }

let dwrite t ~now ~pc addr =
  let latency = dwrite_lat t ~now ~pc addr in
  { level = t.last_level; latency }

let prefetch_i t ~now addr =
  prefetch ~l1:t.l1i ~pending:t.pending_l1i t ~now ~write:false addr

let prefetch_d t ~now ~pc addr =
  ignore pc;
  prefetch ~l1:t.l1d ~pending:t.pending_l1d t ~now ~write:false addr

let touch_i t addr =
  let line = Cache.line_of t.l1i addr in
  Cache.fill t.l1i line;
  Cache.fill t.l2 line

let touch_d t addr =
  let line = Cache.line_of t.l1d addr in
  Cache.fill t.l1d line;
  Cache.fill t.l2 line

let invalidate_all t =
  Cache.invalidate_all t.l1i;
  Cache.invalidate_all t.l1d;
  Cache.invalidate_all t.l2;
  Line_tbl.reset t.pending_l1i;
  Line_tbl.reset t.pending_l1d;
  Line_tbl.reset t.pending_l2;
  t.fd_last_line <- -1;
  t.fd_stride <- 0;
  t.fd_conf <- 0;
  t.opp_prev_line <- -1

let iopp_misses t = t.opp_misses
let iopp_predictable t = t.opp_predictable

let l1i_stats t = Cache.stats t.l1i
let l1d_stats t = Cache.stats t.l1d
let l2_stats t = Cache.stats t.l2
let dram_stats t = Dram.stats t.dram
