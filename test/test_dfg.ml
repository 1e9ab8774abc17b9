(* Tests for the DFG and instruction-chain analysis. *)

module I = Isa.Instr
module Op = Isa.Opcode
module B = Prog.Block
module P = Prog.Program

let r = Isa.Reg.r

let mk uid ?dst ?(srcs = []) op = I.make ~uid ~opcode:op ?dst ~srcs ()

(* body: 0: r0 <- .          (root, fanout 3: 1,2,3)
         1: r1 <- r0
         2: r2 <- r0
         3: r3 <- r0, then overwritten chains
         4: r4 <- r1, r2     (joins two paths)
         5: r5 <- r4          *)
let diamond_trace () =
  let body =
    [|
      mk 0 ~dst:(r 0) Op.Alu;
      mk 1 ~dst:(r 1) ~srcs:[ r 0 ] Op.Alu;
      mk 2 ~dst:(r 2) ~srcs:[ r 0 ] Op.Alu;
      mk 3 ~dst:(r 3) ~srcs:[ r 0 ] Op.Alu;
      mk 4 ~dst:(r 4) ~srcs:[ r 1; r 2 ] Op.Alu;
      mk 5 ~dst:(r 5) ~srcs:[ r 4 ] Op.Alu;
    |]
  in
  let p =
    P.make ~entry:0 ~blocks:[ B.make ~id:0 ~func:0 ~body ~term:(B.Jump 0) ]
  in
  Prog.Trace.expand p ~seed:1 (Prog.Walk.path_visits p ~seed:1 ~visits:1)

let test_edges () =
  let t = diamond_trace () in
  let g = Dfg.of_events t in
  Alcotest.(check int) "root fanout" 3 (Dfg.fanout g 0);
  Alcotest.(check (list int)) "node 4 preds" [ 1; 2 ] (Dfg.preds g 4);
  Alcotest.(check (list int)) "node 0 succs" [ 1; 2; 3 ] (Dfg.succs g 0);
  Alcotest.(check (list int)) "roots" [ 0; 6 ] (Dfg.roots g)
(* node 6 is the synthetic jump terminator, an isolated root *)

let test_last_writer_semantics () =
  (* a second write to r0 redirects subsequent readers *)
  let body =
    [|
      mk 0 ~dst:(r 0) Op.Alu;
      mk 1 ~dst:(r 0) Op.Alu;
      mk 2 ~dst:(r 1) ~srcs:[ r 0 ] Op.Alu;
    |]
  in
  let p =
    P.make ~entry:0 ~blocks:[ B.make ~id:0 ~func:0 ~body ~term:(B.Jump 0) ]
  in
  let t = Prog.Trace.expand p ~seed:1 (Prog.Walk.path_visits p ~seed:1 ~visits:1) in
  let g = Dfg.of_events t in
  Alcotest.(check int) "old writer has no consumers" 0 (Dfg.fanout g 0);
  Alcotest.(check int) "new writer has the consumer" 1 (Dfg.fanout g 1)

let test_window () =
  let t = diamond_trace () in
  let g = Dfg.of_events ~lo:1 ~hi:4 t in
  Alcotest.(check int) "window size" 3 (Dfg.size g);
  (* within the window, producers outside are invisible: all roots *)
  Alcotest.(check (list int)) "all roots in window" [ 0; 1; 2 ] (Dfg.roots g)

let test_toposort () =
  let t = diamond_trace () in
  let g = Dfg.of_events t in
  Alcotest.(check (list int)) "stream order" [ 0; 1; 2; 3; 4; 5; 6 ]
    (Dfg.toposort g)

let test_high_fanout () =
  let t = diamond_trace () in
  let g = Dfg.of_events t in
  Alcotest.(check bool) "fanout 3 >= threshold 3" true
    (Dfg.is_high_fanout ~threshold:3 g 0);
  Alcotest.(check bool) "not at threshold 4" false
    (Dfg.is_high_fanout ~threshold:4 g 0)

let test_chain_gaps () =
  let t = diamond_trace () in
  let g = Dfg.of_events t in
  (* with threshold 2: node 0 (fanout 3) and node 4 (fanout 1)... only
     node 0 is high-fanout; its slice has no other critical node. *)
  let h = Dfg.chain_gaps ~threshold:2 g in
  Alcotest.(check int) "one critical node recorded" 1
    (Util.Dist.Histogram.count h);
  Alcotest.(check int) "no dependent critical" 1 (Util.Dist.Histogram.get h (-1))

(* ------------------------------ ICs -------------------------------- *)

let test_ic_enumerate () =
  let t = diamond_trace () in
  let g = Dfg.of_events t in
  let ics = Dfg.Ic.enumerate g in
  Alcotest.(check bool) "at least 2 ICs" true (List.length ics >= 2);
  List.iter
    (fun (ic : Dfg.Ic.t) ->
      Alcotest.(check bool) "every enumerated IC satisfies is_ic" true
        (Dfg.Ic.is_ic g ic.nodes))
    ics;
  (* the diamond join (node 4) requires both 1 and 2: a plain path
     0->1->4 is not independently schedulable *)
  Alcotest.(check bool) "0->1->4 is not an IC" false
    (Dfg.Ic.is_ic g [ 0; 1; 4 ])

let test_ic_prefixes () =
  let t = diamond_trace () in
  let g = Dfg.of_events t in
  let ic = { Dfg.Ic.nodes = [ 0; 1 ] } in
  Alcotest.(check bool) "prefix of IC is IC" true (Dfg.Ic.is_ic g ic.nodes);
  let three = { Dfg.Ic.nodes = [ 0; 1; 2 ] } in
  List.iter
    (fun (p : Dfg.Ic.t) ->
      Alcotest.(check bool) "prefixes are ICs" true (Dfg.Ic.is_ic g p.nodes))
    (Dfg.Ic.prefixes three)

let test_ic_criticality_and_spread () =
  let t = diamond_trace () in
  let g = Dfg.of_events t in
  let ic = { Dfg.Ic.nodes = [ 0; 3 ] } in
  Alcotest.(check (float 1e-9)) "avg fanout" 1.5 (Dfg.Ic.criticality g ic);
  Alcotest.(check int) "spread" 3 (Dfg.Ic.spread g ic)

let test_ic_max_len () =
  let t = diamond_trace () in
  let g = Dfg.of_events t in
  let ics = Dfg.Ic.enumerate ~max_len:1 g in
  List.iter
    (fun ic ->
      Alcotest.(check bool) "length capped" true (Dfg.Ic.length ic <= 1))
    ics

let test_ic_enumerate_greedy () =
  let t = diamond_trace () in
  let g = Dfg.of_events t in
  let ics = Dfg.Ic.enumerate_greedy g in
  List.iter
    (fun (ic : Dfg.Ic.t) ->
      Alcotest.(check bool) "greedy clusters satisfy is_ic" true
        (Dfg.Ic.is_ic g ic.nodes))
    ics;
  (* the cluster from node 0 absorbs the whole diamond *)
  let root_cluster =
    List.find (fun (ic : Dfg.Ic.t) -> List.hd ic.nodes = 0) ics
  in
  Alcotest.(check (list int)) "diamond fully absorbed" [ 0; 1; 2; 3; 4; 5 ]
    root_cluster.nodes

(* property: on random small programs every enumerated IC checks out *)
let arbitrary_trace =
  QCheck.make
    QCheck.Gen.(
      let* seed = int_range 0 10_000 in
      let* n = int_range 4 20 in
      let rng = Util.Rng.create seed in
      let body =
        Array.init n (fun i ->
            let dst = r (Util.Rng.int rng 8) in
            let srcs =
              if i = 0 || Util.Rng.bool rng then []
              else [ r (Util.Rng.int rng 8) ]
            in
            mk i ~dst ~srcs Op.Alu)
      in
      let p =
        P.make ~entry:0
          ~blocks:[ B.make ~id:0 ~func:0 ~body ~term:(B.Jump 0) ]
      in
      return
        (Prog.Trace.expand p ~seed
           (Prog.Walk.path_visits p ~seed ~visits:2)))

let prop_enumerated_ics_valid =
  QCheck.Test.make ~name:"enumerated ICs satisfy the IC property" ~count:200
    arbitrary_trace (fun t ->
      let g = Dfg.of_events t in
      List.for_all
        (fun (ic : Dfg.Ic.t) -> Dfg.Ic.is_ic g ic.nodes)
        (Dfg.Ic.enumerate ~max_paths:64 g)
      && List.for_all
           (fun (ic : Dfg.Ic.t) -> Dfg.Ic.is_ic g ic.nodes)
           (Dfg.Ic.enumerate_greedy g))

let prop_fanout_conserved =
  QCheck.Test.make ~name:"sum of fanouts = sum of in-degrees" ~count:200
    arbitrary_trace (fun t ->
      let g = Dfg.of_events t in
      let out = ref 0 and inn = ref 0 in
      for i = 0 to Dfg.size g - 1 do
        out := !out + List.length (Dfg.succs g i);
        inn := !inn + List.length (Dfg.preds g i)
      done;
      !out = !inn)

(* ------------------- flat kernels vs specifications ------------------ *)

(* A window of a dynamic stream: either a fuzzed program's, with every
   register mix the fuzzer builds, or a dense one — a block of up to
   three-source instructions and stores (which also read their data
   register) over two to six registers, so that nodes have several
   producers and windows hold many chains. *)
let arbitrary_window =
  QCheck.make
    ~print:(fun (dense, seed, lo, hi, threshold) ->
      Printf.sprintf "%s seed %d, window [%d, %d), threshold %d"
        (if dense then "dense" else "fuzzed")
        seed lo hi threshold)
    QCheck.Gen.(
      let* dense = bool in
      let* seed = int_range 0 10_000 in
      let* lo = int_range 0 60 in
      let* len = int_range 0 40 in
      let* threshold = int_range 1 4 in
      return (dense, seed, lo, lo + len, threshold))

let dense_program seed =
  let rng = Util.Rng.create seed in
  let nregs = 2 + Util.Rng.int rng 5 in
  let reg () = r (Util.Rng.int rng nregs) in
  let body =
    Array.init
      (8 + Util.Rng.int rng 24)
      (fun i ->
        let srcs = List.init (Util.Rng.int rng 4) (fun _ -> reg ()) in
        let op = if Util.Rng.int rng 5 = 0 then Op.Store else Op.Alu in
        mk i ~dst:(reg ()) ~srcs op)
  in
  P.make ~entry:0 ~blocks:[ B.make ~id:0 ~func:0 ~body ~term:(B.Jump 0) ]

let window_of (dense, seed, lo, hi, _) =
  let program, path =
    if dense then begin
      let p = dense_program seed in
      (p, Prog.Walk.path_visits p ~seed ~visits:4)
    end
    else begin
      let p = Workload.Fuzz.program_of_seed seed in
      (p, Prog.Walk.path_for_instrs p ~seed ~instrs:200)
    end
  in
  let t = Prog.Trace.expand program ~seed path in
  let hi = min hi (Array.length t) in
  (t, min lo hi, hi)

(* Producers of window node [j] by an O(n) backward scan per source
   register: the most recent earlier in-window writer. *)
let spec_preds t lo j =
  let writes i r =
    List.exists (Isa.Reg.equal r) (I.regs_written t.(lo + i).Prog.Trace.instr)
  in
  List.filter_map
    (fun r ->
      let rec back i =
        if i < 0 then None else if writes i r then Some i else back (i - 1)
      in
      back (j - 1))
    (I.regs_read t.(lo + j).Prog.Trace.instr)
  |> List.sort_uniq compare

let prop_edges_match_scan =
  QCheck.Test.make ~name:"edges and fanouts = last-writer scan" ~count:300
    arbitrary_window (fun w ->
      let t, lo, hi = window_of w in
      let n = hi - lo in
      let nodes = List.init n Fun.id in
      let preds = Array.init n (spec_preds t lo) in
      let matches g =
        Dfg.size g = n
        && List.for_all
             (fun j ->
               let succs = List.filter (fun k -> List.mem j preds.(k)) nodes in
               Dfg.preds g j = preds.(j)
               && Dfg.succs g j = succs
               && Dfg.fanout g j = List.length succs)
             nodes
      in
      (* A graph reloaded after a larger window must not keep any of it. *)
      let reused = Dfg.of_events t in
      Dfg.load reused ~lo ~hi t;
      matches (Dfg.of_events ~lo ~hi t) && matches reused)

let prop_path_cap_is_prefix =
  QCheck.Test.make ~name:"max_paths k keeps the first k paths" ~count:300
    arbitrary_window (fun w ->
      let t, lo, hi = window_of w in
      let g = Dfg.of_events ~lo ~hi t in
      let all = Dfg.Ic.enumerate ~max_paths:max_int g in
      let total = List.length all in
      List.for_all
        (fun k ->
          Dfg.Ic.enumerate ~max_paths:k g = List.filteri (fun i _ -> i < k) all)
        (List.init (min total 32 + 2) Fun.id @ [ total; total + 1 ]))

(* Gap of every high-fanout node by relaxing
   d(i) = min over consumers s of (0 if s is high, else d(s) + 1)
   to a fixpoint, in no particular order. *)
let spec_gaps ~threshold g =
  let n = Dfg.size g in
  let high i = Dfg.fanout g i >= threshold in
  let d = Array.make n max_int in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      List.iter
        (fun s ->
          let via =
            if high s then 0 else if d.(s) = max_int then max_int else d.(s) + 1
          in
          if via < d.(i) then begin
            d.(i) <- via;
            changed := true
          end)
        (Dfg.succs g i)
    done
  done;
  let h = Util.Dist.Histogram.create () in
  for i = 0 to n - 1 do
    if high i then
      Util.Dist.Histogram.add h (if d.(i) = max_int then -1 else d.(i))
  done;
  Util.Dist.Histogram.bins h

let prop_chain_gaps_match_fixpoint =
  QCheck.Test.make ~name:"chain_gaps = shortest-distance fixpoint" ~count:300
    arbitrary_window (fun ((_, _, _, _, threshold) as w) ->
      let t, lo, hi = window_of w in
      let g = Dfg.of_events ~lo ~hi t in
      Util.Dist.Histogram.bins (Dfg.chain_gaps ~threshold g)
      = spec_gaps ~threshold g)

let () =
  Alcotest.run "dfg"
    [
      ( "graph",
        [
          Alcotest.test_case "edges" `Quick test_edges;
          Alcotest.test_case "last writer" `Quick test_last_writer_semantics;
          Alcotest.test_case "window" `Quick test_window;
          Alcotest.test_case "toposort" `Quick test_toposort;
          Alcotest.test_case "high fanout" `Quick test_high_fanout;
          Alcotest.test_case "chain gaps" `Quick test_chain_gaps;
        ] );
      ( "ic",
        [
          Alcotest.test_case "enumerate" `Quick test_ic_enumerate;
          Alcotest.test_case "prefixes" `Quick test_ic_prefixes;
          Alcotest.test_case "criticality & spread" `Quick
            test_ic_criticality_and_spread;
          Alcotest.test_case "max_len" `Quick test_ic_max_len;
          Alcotest.test_case "greedy clusters" `Quick test_ic_enumerate_greedy;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_enumerated_ics_valid;
            prop_fanout_conserved;
            prop_edges_match_scan;
            prop_path_cap_is_prefix;
            prop_chain_gaps_match_fixpoint;
          ] );
    ]
