type row = {
  suite : string;
  shares : (string * float) list;
  fetch_i_share : float;
  fetch_rd_share : float;
  long_latency_fraction : float;
}

type result = row list

(* One pass over the cursor's [instr] column that keeps, per register,
   the fanout and class of its live producer.  An instruction writes at
   most one register ([Isa.Instr.regs_written]), so its fanout is final
   when that register is written again or the stream ends; a consumer
   counts once per distinct register it reads, as [Dfg.load] counts
   each producer once. *)
let critical_counts ~is_long cur =
  let n = Isa.Reg.count in
  let fanout = Array.make n (-1) (* -1: no live producer *)
  and long = Array.make n false
  and read_by = Array.make n (-1) in
  let critical = ref 0 and long_critical = ref 0 in
  let retire r =
    if fanout.(r) >= 4 then begin
      incr critical;
      if long.(r) then incr long_critical
    end
  in
  let rec drain () =
    let first = Prog.Trace.Stream.take cur in
    if first >= 0 then begin
      for k = first to cur.lim - 1 do
        let ins = cur.instr.(k) in
        List.iter
          (fun r ->
            let r = Isa.Reg.index r in
            if fanout.(r) >= 0 && read_by.(r) <> cur.seq.(k) then begin
              read_by.(r) <- cur.seq.(k);
              fanout.(r) <- fanout.(r) + 1
            end)
          (Isa.Instr.regs_read ins);
        List.iter
          (fun r ->
            let r = Isa.Reg.index r in
            retire r;
            fanout.(r) <- 0;
            long.(r) <- is_long ins)
          (Isa.Instr.regs_written ins)
      done;
      drain ()
    end
  in
  drain ();
  for r = 0 to n - 1 do
    retire r
  done;
  (!critical, !long_critical)

(* Fraction of committed critical instructions with a multi-cycle
   execution: loads count as long-latency when they typically leave the
   L1, approximated by the profile's working-set size (we classify by
   opcode latency class, which the paper's Fig. 3c also does). *)
let long_latency_fraction ctx =
  let big_loads = ctx.Critics.Run.profile.load_working_set > 256 * 1024 in
  let is_long ins =
    let op = Isa.Instr.opcode ins in
    Isa.Opcode.is_long_latency op || (big_loads && op = Isa.Opcode.Load)
  in
  let critical, long =
    critical_counts ~is_long (Critics.Run.stream ctx Critics.Scheme.Baseline)
  in
  float_of_int long /. float_of_int (max 1 critical)

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
