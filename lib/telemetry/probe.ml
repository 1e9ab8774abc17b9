type population = All | Critical | Chain

let population_name = function
  | All -> "all"
  | Critical -> "critical"
  | Chain -> "chain"

type retire = {
  cycle : int;
  critical : bool;
  chain_id : int;
  chain_pos : int;
  chain_len : int;
  dispatch : int;
  fetch_i : int;
  fetch_rd : int;
  decode : int;
  rename : int;
  issue_wait : int;
  execute : int;
  commit_wait : int;
}

(* Mutable per-window accumulator, one per population. *)
type wacc = {
  mutable a_count : int;
  mutable a_fetch_i : int;
  mutable a_fetch_rd : int;
  mutable a_decode : int;
  mutable a_rename : int;
  mutable a_issue_wait : int;
  mutable a_execute : int;
  mutable a_commit_wait : int;
}

let fresh_wacc () =
  {
    a_count = 0;
    a_fetch_i = 0;
    a_fetch_rd = 0;
    a_decode = 0;
    a_rename = 0;
    a_issue_wait = 0;
    a_execute = 0;
    a_commit_wait = 0;
  }

let reset_wacc a =
  a.a_count <- 0;
  a.a_fetch_i <- 0;
  a.a_fetch_rd <- 0;
  a.a_decode <- 0;
  a.a_rename <- 0;
  a.a_issue_wait <- 0;
  a.a_execute <- 0;
  a.a_commit_wait <- 0

type t = {
  win : int;
  tr : Chrome_trace.t option;
  reg : Registry.t;
  mutable cur_w : int;
  acc_all : wacc;
  acc_crit : wacc;
  acc_chain : wacc;
  chain_starts : (int, int) Hashtbl.t; (* chain id -> dispatch of member 0 *)
  mutable next_span : int; (* unique async-span id per chain instance *)
  retired : Registry.counter;
  chain_instances : Registry.counter;
  chain_latency : Registry.histogram;
  mutable finished : bool;
}

let create ?(window = 1024) ?trace () =
  let win = max 1 window in
  let reg = Registry.create () in
  Registry.set (Registry.gauge reg "window/size") win;
  {
    win;
    tr = trace;
    reg;
    cur_w = 0;
    acc_all = fresh_wacc ();
    acc_crit = fresh_wacc ();
    acc_chain = fresh_wacc ();
    chain_starts = Hashtbl.create 16;
    next_span = 0;
    retired = Registry.counter reg "retired";
    chain_instances = Registry.counter reg "chain/instances";
    chain_latency = Registry.histogram reg "chain/latency";
    finished = false;
  }

let registry t = t.reg

let stage_names =
  [
    "fetch_i"; "fetch_rd"; "decode"; "rename"; "issue_wait"; "execute";
    "commit_wait";
  ]

let wacc_fields a =
  [
    a.a_fetch_i; a.a_fetch_rd; a.a_decode; a.a_rename; a.a_issue_wait;
    a.a_execute; a.a_commit_wait;
  ]

let flush_window t =
  let flush_pop pop a =
    if a.a_count > 0 then begin
      let prefix = "window/" ^ population_name pop ^ "/" in
      Registry.observe (Registry.histogram t.reg (prefix ^ "count")) a.a_count;
      List.iter2
        (fun stage v ->
          Registry.observe (Registry.histogram t.reg (prefix ^ stage)) v)
        stage_names (wacc_fields a);
      (match (pop, t.tr) with
      | All, Some tr ->
        let ts = t.cur_w * t.win in
        List.iter2
          (fun stage v ->
            Chrome_trace.counter tr ~ts ~name:("stage/" ^ stage) ~value:v)
          stage_names (wacc_fields a)
      | _ -> ());
      reset_wacc a
    end
  in
  flush_pop All t.acc_all;
  flush_pop Critical t.acc_crit;
  flush_pop Chain t.acc_chain

let bump_wacc a (r : retire) =
  a.a_count <- a.a_count + 1;
  a.a_fetch_i <- a.a_fetch_i + r.fetch_i;
  a.a_fetch_rd <- a.a_fetch_rd + r.fetch_rd;
  a.a_decode <- a.a_decode + r.decode;
  a.a_rename <- a.a_rename + r.rename;
  a.a_issue_wait <- a.a_issue_wait + r.issue_wait;
  a.a_execute <- a.a_execute + r.execute;
  a.a_commit_wait <- a.a_commit_wait + r.commit_wait

let retire t r =
  if t.finished then
    invalid_arg "Telemetry.Probe.retire: probe already finished";
  let w = r.cycle / t.win in
  if w > t.cur_w then begin
    flush_window t;
    t.cur_w <- w
  end;
  Registry.incr t.retired;
  bump_wacc t.acc_all r;
  if r.critical then bump_wacc t.acc_crit r;
  if r.chain_id >= 0 then begin
    bump_wacc t.acc_chain r;
    if r.chain_pos = 0 then Hashtbl.replace t.chain_starts r.chain_id
        r.dispatch;
    if r.chain_pos = r.chain_len - 1 then begin
      let start =
        match Hashtbl.find_opt t.chain_starts r.chain_id with
        | Some s -> s
        | None -> r.dispatch
      in
      Hashtbl.remove t.chain_starts r.chain_id;
      let latency = r.cycle - start in
      Registry.incr t.chain_instances;
      Registry.observe t.chain_latency latency;
      Registry.observe
        (Registry.histogram t.reg
           (Printf.sprintf "chain/id/%d/latency" r.chain_id))
        latency;
      match t.tr with
      | Some tr ->
        let id = t.next_span in
        t.next_span <- id + 1;
        let name = Printf.sprintf "chain-%d" r.chain_id in
        Chrome_trace.async_begin tr ~ts:start ~name ~id;
        Chrome_trace.async_end tr ~ts:r.cycle ~name ~id
      | None -> ()
    end
  end

let cdp_marker t ~cycle:_ ~penalty =
  Registry.incr (Registry.counter t.reg "cdp/markers");
  Registry.add (Registry.counter t.reg "cdp/decode_cycles") penalty

let finish t ~cycles =
  if not t.finished then begin
    t.finished <- true;
    flush_window t;
    Registry.add (Registry.counter t.reg "run/cycles") cycles;
    match t.tr with
    | Some tr ->
      Registry.set_max
        (Registry.gauge t.reg "trace/dropped")
        (Chrome_trace.dropped tr)
    | None -> ()
  end
