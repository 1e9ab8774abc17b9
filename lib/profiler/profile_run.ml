module H = Util.Dist.Histogram

type agg = {
  mutable occurrences : int;
  mutable criticality_sum : float;
  mutable window : int;  (* the last window that counted this chain *)
  uids : int array;
  events : Prog.Trace.event array;  (* the first occurrence *)
}

(* The database entry of an aggregated chain.  Built only for the chains
   selection keeps: the structural key and convertibility cost more than
   everything else a chain needs. *)
let site_of agg : Critic_db.site =
  let events = Array.to_list agg.events in
  let first = List.hd events in
  {
    block_id = first.block_id;
    start_index = first.body_index;
    member_indices =
      List.map (fun (e : Prog.Trace.event) -> e.body_index) events;
    uids = Array.to_list agg.uids;
    key =
      String.concat "|"
        (List.map
           (fun (e : Prog.Trace.event) -> Isa.Instr.structural_key e.instr)
           events);
    occurrences = agg.occurrences;
    criticality = agg.criticality_sum /. float_of_int agg.occurrences;
    convertible =
      List.for_all
        (fun (e : Prog.Trace.event) -> Isa.Encode.thumb_convertible e.instr)
        events;
  }

(* Chains by uid sequence: the same key set as the string-keyed
   aggregation table, found without building a string. *)
module Chains = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )
  let hash = Hashtbl.hash
end)

(* Per-window counts of one histogram's values, flushed into the
   histogram in the order the values were first seen: the histogram's
   Hashtbl layout, and so its Marshal bytes, depends only on the order
   of first insertions, which the flush preserves. *)
type tally = {
  counts : int array;  (** by value *)
  order : int array;  (** values, first seen first *)
  mutable distinct : int;
}

let tally cap =
  { counts = Array.make cap 0; order = Array.make cap 0; distinct = 0 }

let flush t h =
  for k = 0 to t.distinct - 1 do
    let v = t.order.(k) in
    H.addn h v t.counts.(v);
    t.counts.(v) <- 0
  done;
  t.distinct <- 0

let count t h v =
  if v < 0 || v >= Array.length t.counts then begin
    (* Out of the tally's range: flushing first keeps first-seen
       order. *)
    flush t h;
    H.add h v
  end
  else begin
    if t.counts.(v) = 0 then begin
      t.order.(t.distinct) <- v;
      t.distinct <- t.distinct + 1
    end;
    t.counts.(v) <- t.counts.(v) + 1
  end

(* The longest chain prefix recorded as a compiler candidate: one CDP
   covers at most 9 instructions. *)
let max_len = 9

(* The fanout at which one instruction counts as high-fanout for the
   Fig. 1b gap histogram, matching the default threshold. *)
let fanout_threshold = 4

let profile_stream ?(window = 512) ?(threshold = 4.0) ?(fraction = 1.0)
    ?(max_paths_per_window = 512) ?(metric = Metric.Average_fanout)
    ~total_events
    (cursor : Prog.Trace.Stream.cursor) : Critic_db.t =
  let n = total_events in
  let limit =
    max 0 (min n (int_of_float (fraction *. float_of_int n)))
  in
  let ic_lengths = H.create () in
  let ic_spreads = H.create () in
  let chain_gaps = H.create () in
  (* An IC is at most a window long, and spans less than a window of a
     contiguous stream. *)
  let cap = max 1 window + 1 in
  let lengths = tally cap and spreads = tally cap in
  let table : (string, agg) Hashtbl.t = Hashtbl.create 1024 in
  let chains : agg Chains.t = Chains.create 1024 in
  let dfg = Dfg.create () in
  (* One window of events lives in a reused buffer, and node [i] of the
     window's DFG is [!buf.(i)]. *)
  let buf : Prog.Trace.t ref = ref [||] in
  let window_no = ref 0 in
  (* Scratch for the IC being recorded: its members that sit in a block
     body, and their fanouts; and per length, the uids of a candidate
     chain. *)
  let members = Array.make cap 0 and fanouts = Array.make cap 0 in
  let keys = Array.make (max_len + 1) [||] in
  (* The same chain appears in many maximal ICs of one window (paths
     branch at every fanout tree); count each static chain at most once
     per window. *)
  let record_chain off len crit =
    if Array.length keys.(len) <> len then keys.(len) <- Array.make len 0;
    let uids = keys.(len) in
    for k = 0 to len - 1 do
      uids.(k) <- !buf.(members.(off + k)).Prog.Trace.instr.uid
    done;
    match Chains.find chains uids with
    | agg ->
      if agg.window <> !window_no then begin
        agg.window <- !window_no;
        agg.occurrences <- agg.occurrences + 1;
        agg.criticality_sum <- agg.criticality_sum +. crit
      end
    | exception Not_found ->
      let uids = Array.copy uids in
      let agg =
        {
          occurrences = 1;
          criticality_sum = crit;
          window = !window_no;
          uids;
          events = Array.init len (fun k -> !buf.(members.(off + k)));
        }
      in
      Hashtbl.replace table
        (String.concat "," (List.map string_of_int (Array.to_list uids)))
        agg;
      Chains.replace chains uids agg
  in
  (* The longest prefix, of at least two members, whose score reaches
     the threshold. *)
  let shrink off len =
    let rec go k =
      if k < 2 then ()
      else begin
        let crit = Metric.score_sub metric fanouts off k in
        if crit >= threshold then record_chain off k crit else go (k - 1)
      end
    in
    go len
  in
  (* Chains longer than [max_len] become several consecutive sites of
     at most [max_len] members each — a chunk's external producers are
     earlier chain members, which precede its hoist point, so every
     chunk remains independently hoistable. *)
  let segment off len =
    let rec chunk c =
      if c < off + len then begin
        shrink c (min max_len (off + len - c));
        chunk (c + max_len)
      end
    in
    chunk off
  in
  (* Cut an IC into maximal segments that sit inside a single visit of a
     single block: within one visit the stream is contiguous, so the seq
     distance between members must equal their body-index distance.
     Each segment is independently hoistable by the compiler (producers
     of its head may live in earlier blocks; the head stays first). *)
  let record_ic path len =
    let m = ref 0 and start = ref 0 in
    for k = 0 to len - 1 do
      let i = path.(k) in
      let e = !buf.(i) in
      if e.body_index >= 0 then begin
        if !m > 0 then begin
          let ep = !buf.(members.(!m - 1)) in
          if
            not
              (e.block_id = ep.block_id
              && e.body_index > ep.body_index
              && e.seq - ep.seq = e.body_index - ep.body_index)
          then begin
            if !m - !start >= 2 then segment !start (!m - !start);
            start := !m
          end
        end;
        members.(!m) <- i;
        fanouts.(!m) <- dfg.fanouts.(i);
        incr m
      end
    done;
    if !m - !start >= 2 then segment !start (!m - !start)
  in
  let taken = ref 0 in
  let total_work = ref 0 in
  let take_window () =
    let len = ref 0 in
    let continue = ref true in
    while !continue && !len < window && !taken < limit do
      match Prog.Trace.Stream.next cursor with
      | None -> continue := false
      | Some e ->
        if Array.length !buf = 0 then buf := Array.make (max 1 window) e;
        !buf.(!len) <- e;
        incr len;
        incr taken;
        if Prog.Trace.is_work e then incr total_work
    done;
    !len
  in
  let continue = ref true in
  while !continue do
    let len = take_window () in
    if len = 0 then continue := false
    else if len >= 8 then begin
      incr window_no;
      Dfg.load dfg ~lo:0 ~hi:len !buf;
      Dfg.Ic.iter ~max_paths:max_paths_per_window ~max_len:window dfg
        (fun path plen ->
          count lengths ic_lengths plen;
          count spreads ic_spreads
            (!buf.(path.(plen - 1)).seq - !buf.(path.(0)).seq);
          record_ic path plen);
      flush lengths ic_lengths;
      flush spreads ic_spreads;
      let gaps = Dfg.chain_gaps ~threshold:fanout_threshold dfg in
      List.iter
        (fun (v, c) -> H.addn chain_gaps v c)
        (H.bins gaps)
    end
  done;
  (* Greedy per-block selection of non-overlapping sites, best dynamic
     coverage first.  [Hashtbl.fold] visits buckets in the hash order
     of the uid-string keys, not in insertion order, so that order,
     together with the table's size, decides ties. *)
  let finished = Hashtbl.fold (fun _ agg acc -> agg :: acc) table [] in
  let score agg = agg.occurrences * Array.length agg.uids in
  let sorted = List.sort (fun a b -> compare (score b) (score a)) finished in
  (* Disjoint *index ranges* per block (not merely disjoint indices):
     the compiler pass applies sites highest-range-first and relies on
     ranges never interleaving. *)
  let chosen : (int, (int * int) list) Hashtbl.t = Hashtbl.create 64 in
  let sites =
    List.filter_map
      (fun agg ->
        let first = agg.events.(0) in
        let lo = first.body_index in
        let hi =
          Array.fold_left
            (fun hi (e : Prog.Trace.event) -> max hi e.body_index)
            lo agg.events
        in
        let used =
          Option.value ~default:[] (Hashtbl.find_opt chosen first.block_id)
        in
        let overlap =
          List.exists (fun (rlo, rhi) -> lo <= rhi && rlo <= hi) used
        in
        if overlap then None
        else begin
          Hashtbl.replace chosen first.block_id ((lo, hi) :: used);
          Some (site_of agg)
        end)
      sorted
  in
  { Critic_db.sites; total_work = !total_work; ic_lengths; ic_spreads;
    chain_gaps }

let profile ?window ?threshold ?fraction ?max_paths_per_window ?metric
    (trace : Prog.Trace.t) : Critic_db.t =
  profile_stream ?window ?threshold ?fraction ?max_paths_per_window ?metric
    ~total_events:(Array.length trace)
    (Prog.Trace.Stream.of_trace trace)
