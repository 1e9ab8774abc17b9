type row = {
  suite : string;
  shares : (string * float) list;
  fetch_i_share : float;
  fetch_rd_share : float;
  long_latency_fraction : float;
}

type result = row list

(* Fraction of committed critical instructions with a multi-cycle
   execution, approximated from the DFG: high-fanout events whose
   opcode class is long-latency (loads count as long only in suites
   where they typically miss; we classify by opcode latency class,
   which the paper's Fig. 3c also does). *)
let long_latency_fraction ctx =
  (* The figure classifies events by whole-trace fanout, which needs
     random access — materialize transiently, scoped to this figure. *)
  let trace = Critics.Run.trace_of ctx Critics.Scheme.Baseline in
  let dfg = Dfg.of_events trace in
  let critical = ref 0 and long = ref 0 in
  Array.iteri
    (fun i (e : Prog.Trace.event) ->
      if Dfg.fanout dfg i >= 4 then begin
        incr critical;
        (* Loads count as long-latency when they typically leave the L1,
           approximated by the profile's working-set size. *)
        let is_long =
          Isa.Opcode.is_long_latency (Isa.Instr.opcode e.instr)
          || (Isa.Instr.opcode e.instr = Isa.Opcode.Load
              && ctx.Critics.Run.profile.load_working_set > 256 * 1024)
        in
        if is_long then incr long
      end)
    trace;
  float_of_int !long /. float_of_int (max 1 !critical)

let suite_summary h apps =
  (* Aggregate critical-population stage cycles across the suite. *)
  let sums = Hashtbl.create 8 in
  let add k v =
    Hashtbl.replace sums k (v + Option.value ~default:0 (Hashtbl.find_opt sums k))
  in
  List.iter
    (fun app ->
      let st = Harness.stats h app Critics.Scheme.Baseline in
      let s = st.Pipeline.Stats.stage_critical in
      add "fetch.stall_for_i" s.fetch_i;
      add "fetch.stall_for_r+d" s.fetch_rd;
      add "decode" s.decode;
      add "rename" s.rename;
      add "issue" s.issue_wait;
      add "execute" s.execute;
      add "commit/rob" s.commit_wait)
    apps;
  let order =
    [ "fetch.stall_for_i"; "fetch.stall_for_r+d"; "decode"; "rename";
      "issue"; "execute"; "commit/rob" ]
  in
  let total =
    List.fold_left
      (fun acc k -> acc + Option.value ~default:0 (Hashtbl.find_opt sums k))
      0 order
  in
  List.map
    (fun k ->
      ( k,
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt sums k))
        /. float_of_int (max 1 total) ))
    order

let run h =
  List.map
    (fun (suite, apps) ->
      let shares = suite_summary h apps in
      let get k = List.assoc k shares in
      let llf =
        Harness.mean
          (List.map (fun app -> long_latency_fraction (Harness.context h app)) apps)
      in
      {
        suite;
        shares;
        fetch_i_share = get "fetch.stall_for_i";
        fetch_rd_share = get "fetch.stall_for_r+d";
        long_latency_fraction = llf;
      })
    Harness.suites

let render rows =
  let pct = Util.Stats.pct in
  let header =
    "Suite"
    :: (match rows with
       | r :: _ -> List.map fst r.shares
       | [] -> [])
  in
  let a =
    Util.Text_table.render ~header
      (List.map
         (fun r -> r.suite :: List.map (fun (_, v) -> pct v) r.shares)
         rows)
  in
  let b =
    Util.Text_table.render
      ~header:[ "Suite"; "F.StallForI"; "F.StallForR+D"; "long-latency criticals" ]
      (List.map
         (fun r ->
           [
             r.suite;
             pct r.fetch_i_share;
             pct r.fetch_rd_share;
             pct r.long_latency_fraction;
           ])
         rows)
  in
  "Fig 3a: stage residency of critical instructions\n" ^ a
  ^ "\n\nFig 3b/3c: fetch-stall split and latency mix\n" ^ b
