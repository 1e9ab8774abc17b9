(* Tests for the cycle-level pipeline model. *)

module I = Isa.Instr
module Op = Isa.Opcode
module B = Prog.Block
module P = Prog.Program
module Cfg = Pipeline.Config

let r = Isa.Reg.r

let mk uid ?dst ?(srcs = []) ?cond ?encoding ?mem op =
  I.make ~uid ~opcode:op ?dst ~srcs ?cond ?encoding ?mem ()

(* A block program with its seed and block path.  Tests simulate its
   live stream and expand it only to count events. *)
let walk_of_blocks ?(visits = 4) ?(seed = 1) blocks =
  let p = P.make ~entry:0 ~blocks in
  (p, seed, Prog.Walk.path_visits p ~seed ~visits)

let simulate ?hier cfg (p, seed, path) =
  Pipeline.Cpu.run_stream ?hier cfg (fun () ->
      Prog.Trace.Stream.of_program p ~seed path)

let expand (p, seed, path) = Prog.Trace.expand p ~seed path

let alu_block ?(n = 16) ?(term = B.Jump 0) id =
  B.make ~id ~func:0
    ~body:(Array.init n (fun i -> mk ((id * 1000) + i) ~dst:(r (i mod 8)) Op.Alu))
    ~term

let test_commits_everything () =
  let t = walk_of_blocks [ alu_block 0 ] in
  let st = simulate Cfg.table_i t in
  let events = expand t in
  Alcotest.(check int) "all events retire" (Array.length events)
    st.committed_total;
  Alcotest.(check int) "work matches trace" (Prog.Trace.work_count events)
    st.committed_work

let test_deterministic () =
  let t = walk_of_blocks [ alu_block 0 ] in
  let a = simulate Cfg.table_i t in
  let b = simulate Cfg.table_i t in
  Alcotest.(check int) "same cycles" a.cycles b.cycles

let test_ipc_bounded_by_width () =
  let t = walk_of_blocks ~visits:50 [ alu_block 0 ] in
  let st = simulate Cfg.table_i t in
  Alcotest.(check bool) "IPC <= width" true
    (Pipeline.Stats.ipc st <= float_of_int Cfg.table_i.width)

let test_dependence_serializes () =
  (* a serial dependence chain must be slower than independent work *)
  let serial =
    B.make ~id:0 ~func:0
      ~body:
        (Array.init 32 (fun i ->
             if i = 0 then mk i ~dst:(r 0) Op.Alu
             else mk i ~dst:(r 0) ~srcs:[ r 0 ] Op.Alu))
      ~term:(B.Jump 0)
  in
  let t_serial = walk_of_blocks ~visits:8 [ serial ] in
  let t_parallel = walk_of_blocks ~visits:8 [ alu_block ~n:32 0 ] in
  let s1 = simulate Cfg.table_i t_serial in
  let s2 = simulate Cfg.table_i t_parallel in
  Alcotest.(check bool) "serial slower" true (s1.cycles > s2.cycles)

let test_long_latency_ops_cost () =
  let divs =
    B.make ~id:0 ~func:0
      ~body:(Array.init 16 (fun i -> mk i ~dst:(r (i mod 8)) Op.Div))
      ~term:(B.Jump 0)
  in
  let t_div = walk_of_blocks ~visits:4 [ divs ] in
  let t_alu = walk_of_blocks ~visits:4 [ alu_block 0 ] in
  let s_div = simulate Cfg.table_i t_div in
  let s_alu = simulate Cfg.table_i t_alu in
  Alcotest.(check bool) "div-heavy slower" true (s_div.cycles > s_alu.cycles)

let test_thumb_reduces_fetch_pressure () =
  (* identical work, half the bytes: never slower, and with a narrow
     fetch group strictly faster *)
  let narrow = { Cfg.table_i with Cfg.fetch_bytes = 8 } in
  let arm = walk_of_blocks ~visits:40 [ alu_block ~n:24 0 ] in
  let thumb_block =
    B.make ~id:0 ~func:0
      ~body:
        (Array.init 24 (fun i ->
             mk i ~dst:(r (i mod 8)) ~encoding:I.Thumb16 Op.Alu))
      ~term:(B.Jump 0)
  in
  let thumb = walk_of_blocks ~visits:40 [ thumb_block ] in
  let s_arm = simulate narrow arm in
  let s_thumb = simulate narrow thumb in
  Alcotest.(check bool) "thumb faster under fetch pressure" true
    (s_thumb.cycles < s_arm.cycles);
  let thumb_events =
    Array.fold_left
      (fun acc (e : Prog.Trace.event) ->
        if I.encoding e.instr = I.Thumb16 then acc + 1 else acc)
      0 (expand thumb)
  in
  Alcotest.(check int) "thumb instructions counted" thumb_events
    s_thumb.thumb_committed

let test_cdp_markers_retire_at_decode () =
  let body =
    [|
      I.cdp ~uid:100 ~following:2;
      mk 0 ~dst:(r 0) ~encoding:I.Thumb16 Op.Alu;
      mk 1 ~dst:(r 1) ~encoding:I.Thumb16 Op.Alu;
    |]
  in
  let t =
    walk_of_blocks ~visits:5 [ B.make ~id:0 ~func:0 ~body ~term:(B.Jump 0) ]
  in
  let st = simulate Cfg.table_i t in
  Alcotest.(check int) "cdp markers counted" 5 st.cdp_markers;
  let events = expand t in
  Alcotest.(check int) "everything retires" (Array.length events)
    st.committed_total;
  (* CDP markers are not work *)
  Alcotest.(check int) "work excludes CDP" (Prog.Trace.work_count events)
    st.committed_work

let test_mispredicts_cost_cycles () =
  let blocks bias =
    [
      B.make ~id:0 ~func:0
        ~body:(Array.init 8 (fun i -> mk i ~dst:(r (i mod 8)) Op.Alu))
        ~term:(B.Cond_branch { taken = 0; not_taken = 1; taken_bias = bias });
      alu_block ~n:8 ~term:(B.Jump 0) 1;
    ]
  in
  (* bias 0.5 is unpredictable; bias 0.99 is easy *)
  let t_hard = walk_of_blocks ~visits:400 ~seed:7 (blocks 0.5) in
  let t_easy = walk_of_blocks ~visits:400 ~seed:7 (blocks 0.99) in
  let hard = simulate Cfg.table_i t_hard in
  let easy = simulate Cfg.table_i t_easy in
  let cpi (s : Pipeline.Stats.t) =
    float_of_int s.cycles /. float_of_int s.committed_work
  in
  Alcotest.(check bool) "unpredictable branches cost cycles" true
    (cpi hard > cpi easy);
  Alcotest.(check bool) "mispredicts recorded" true (hard.bpu.mispredicts > 0)

let test_perfect_branch_never_slower () =
  let t = walk_of_blocks ~visits:100 [ alu_block 0 ] in
  let base = simulate Cfg.table_i t in
  let perfect = simulate (Cfg.with_perfect_branch Cfg.table_i) t in
  Alcotest.(check bool) "perfect bp never slower" true
    (perfect.cycles <= base.cycles)

let test_warm_faster_than_cold () =
  let mem = { I.region = 1; stride = 64; working_set = 8192; randomness = 0.0 } in
  let body =
    Array.init 16 (fun i ->
        if i mod 2 = 0 then mk i ~dst:(r 0) ~mem Op.Load
        else mk i ~dst:(r 1) ~srcs:[ r 0 ] Op.Alu)
  in
  let t =
    walk_of_blocks ~visits:16 [ B.make ~id:0 ~func:0 ~body ~term:(B.Jump 0) ]
  in
  let warm = simulate Cfg.table_i t in
  let cold =
    simulate ~hier:(Mem.Hierarchy.create Cfg.table_i.mem) Cfg.table_i t
  in
  Alcotest.(check bool) "warm run not slower" true (warm.cycles <= cold.cycles)

let test_wrong_path_fetch_pollutes () =
  let blocks =
    [
      B.make ~id:0 ~func:0
        ~body:(Array.init 8 (fun i -> mk i ~dst:(r (i mod 8)) Op.Alu))
        ~term:(B.Cond_branch { taken = 0; not_taken = 1; taken_bias = 0.5 });
      alu_block ~n:8 ~term:(B.Jump 0) 1;
    ]
  in
  let t = walk_of_blocks ~visits:400 ~seed:7 blocks in
  let base = simulate Cfg.table_i t in
  let wp =
    simulate { Cfg.table_i with Cfg.wrong_path_fetch = true } t
  in
  Alcotest.(check bool) "wrong path adds i-cache traffic" true
    (wp.l1i.accesses > base.l1i.accesses);
  Alcotest.(check int) "work unchanged" base.committed_work wp.committed_work

let test_stage_accounting_consistent () =
  let t = walk_of_blocks ~visits:20 [ alu_block 0 ] in
  let st = simulate Cfg.table_i t in
  let s = st.stage_all in
  Alcotest.(check int) "population = committed total minus markers"
    st.committed_total s.count;
  Alcotest.(check bool) "shares sum to 1" true
    (abs_float
       (List.fold_left
          (fun acc (_, v) -> acc +. v)
          0.0
          (Pipeline.Stats.summary_shares s)
       -. 1.0)
    < 1e-9)

(* An empty population (e.g. the chain population of an untransformed
   run) must yield all-zero shares, not a division by zero. *)
let test_empty_summary_shares () =
  let shares = Pipeline.Stats.summary_shares Pipeline.Stats.empty_summary in
  Alcotest.(check int) "one share per stage" 7 (List.length shares);
  List.iter
    (fun (stage, v) ->
      Alcotest.(check (float 0.0)) (stage ^ " share is zero") 0.0 v)
    shares

let test_criticality_table () =
  let ct = Pipeline.Cpu.Criticality_table.create ~threshold:4 () in
  Alcotest.(check bool) "cold predicts non-critical" false
    (Pipeline.Cpu.Criticality_table.predict ct ~pc:0x40);
  Pipeline.Cpu.Criticality_table.train ct ~pc:0x40 ~fanout:8;
  Pipeline.Cpu.Criticality_table.train ct ~pc:0x40 ~fanout:8;
  Alcotest.(check bool) "trained predicts critical" true
    (Pipeline.Cpu.Criticality_table.predict ct ~pc:0x40);
  (* hysteresis: a saturated entry survives one low-fanout observation *)
  Pipeline.Cpu.Criticality_table.train ct ~pc:0x40 ~fanout:0;
  Alcotest.(check bool) "hysteresis" true
    (Pipeline.Cpu.Criticality_table.predict ct ~pc:0x40);
  Pipeline.Cpu.Criticality_table.train ct ~pc:0x40 ~fanout:0;
  Pipeline.Cpu.Criticality_table.train ct ~pc:0x40 ~fanout:0;
  Alcotest.(check bool) "eventually forgets" false
    (Pipeline.Cpu.Criticality_table.predict ct ~pc:0x40);
  (* indexed with a mask: only a power-of-two size is accepted *)
  Alcotest.check_raises "non-power-of-two size rejected"
    (Invalid_argument
       "Criticality_table.create: entries must be a power of two")
    (fun () ->
      ignore
        (Pipeline.Cpu.Criticality_table.create ~entries:1000 ~threshold:4 ()))

let test_efetch_learns_call_sequence () =
  let e = Pipeline.Efetch.create () in
  (* repeat a call sequence; after training, predictions fire *)
  for _ = 1 to 50 do
    List.iter
      (fun t -> ignore (Pipeline.Efetch.on_call e ~target:t))
      [ 0x1000; 0x2000; 0x3000; 0x4000 ]
  done;
  Alcotest.(check bool) "predictions made" true (Pipeline.Efetch.predictions e > 0);
  Alcotest.(check bool) "mostly correct on a loop" true
    (float_of_int (Pipeline.Efetch.correct e)
     /. float_of_int (Pipeline.Efetch.predictions e)
    > 0.8)

let test_config_variants () =
  let c = Cfg.table_i in
  Alcotest.(check int) "2xFD doubles fetch bytes" (c.fetch_bytes * 2)
    (Cfg.with_2x_fd c).fetch_bytes;
  Alcotest.(check int) "4xI$ quadruples icache"
    (c.mem.Mem.Hierarchy.l1i_size * 4)
    (Cfg.with_4x_icache c).mem.Mem.Hierarchy.l1i_size;
  Alcotest.(check bool) "all_hw enables efetch" true (Cfg.all_hw c).efetch

(* A perfect direction predictor never mispredicts, whatever the
   program: the simulator must consult it on every conditional branch
   and charge nothing.  Fuzzed programs bring every block shape. *)
let prop_perfect_predictor_never_mispredicts =
  QCheck.Test.make ~name:"perfect predictor: zero mispredicts" ~count:40
    QCheck.(pair Workload.Fuzz.arbitrary small_nat)
    (fun (genome, seed) ->
      let p = Workload.Fuzz.build genome in
      let path = Prog.Walk.path_for_instrs p ~seed ~instrs:500 in
      let st =
        Pipeline.Cpu.run_stream ~checks:true
          (Cfg.with_perfect_branch Cfg.table_i)
          (fun () -> Prog.Trace.Stream.of_program p ~seed path)
      in
      st.bpu.Bpu.Predictor.mispredicts = 0)

(* The simulator reads the static instruction, and the columns an
   event record needs, only when [on_commit] or a probe is attached;
   everything else runs on the fields decoded at pull.  The statistics
   must not depend on which path ran: a bare run equals one with every
   observer attached and the invariants armed, under each machine of
   the differential sweep.  The probe's windows must sum to those
   statistics (the accounting contract). *)
let same_stats_bare_and_observed cfg p ~seed path =
  let source () = Prog.Trace.Stream.of_program p ~seed path in
  let bare = Pipeline.Cpu.run_stream cfg source in
  let probe = Telemetry.Probe.create () in
  let observed =
    Pipeline.Cpu.run_stream ~checks:true
      ~on_commit:(fun _ -> ())
      ~probe cfg source
  in
  bare = observed && Accounting.holds probe observed

let prop_bare_equals_observed =
  QCheck.Test.make ~name:"bare run = observed run, every machine" ~count:25
    QCheck.(pair Workload.Fuzz.arbitrary small_nat)
    (fun (genome, seed) ->
      let d =
        Oracle.Differential.prepare ~instrs:400 (Workload.Fuzz.build genome)
          ~seed
      in
      (* The baseline and its Critic compile: Thumb, chain tags and CDP
         markers. *)
      let critic, _ =
        Transform.Scheme.compile Transform.Scheme.Critic d.db d.program
      in
      List.for_all
        (fun (name, cfg) ->
          List.for_all
            (fun p ->
              same_stats_bare_and_observed cfg p ~seed d.path
              || QCheck.Test.fail_reportf
                   "%s: stats differ, or the probe's windows do not sum to \
                    them"
                   name)
            [ d.program; critic ])
        Oracle.Differential.configs)

(* Marker-dense code: nearly every other instruction a CDP marker, in
   groups behind a serial divide chain that holds the ROB head.  Markers
   retire at decode, so the in-flight index span outgrows the slot ring
   and the ring grows mid-run under every machine; every live slot must
   survive the move. *)
let test_marker_dense_bare_equals_observed () =
  let body =
    Array.init 96 (fun i ->
        match i mod 12 with
        | 0 -> mk i ~dst:(r 0) ~srcs:[ r 0 ] Op.Div
        | 11 -> mk i ~dst:(r 5) ~srcs:[ r 4 ] Op.Alu
        | k when k mod 2 = 1 -> I.cdp ~uid:(1000 + i) ~following:1
        | _ ->
          mk i ~dst:(r (1 + (i mod 3))) ~srcs:[ r 4 ] ~encoding:I.Thumb16
            Op.Alu)
  in
  let p =
    P.make ~entry:0 ~blocks:[ B.make ~id:0 ~func:0 ~body ~term:(B.Jump 0) ]
  in
  let path = Prog.Walk.path_visits p ~seed:3 ~visits:12 in
  List.iter
    (fun (name, cfg) ->
      Alcotest.(check bool)
        (name ^ ": bare = observed") true
        (same_stats_bare_and_observed cfg p ~seed:3 path))
    Oracle.Differential.configs

let () =
  Alcotest.run "pipeline"
    [
      ( "cpu",
        [
          Alcotest.test_case "commits everything" `Quick test_commits_everything;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "ipc bounded" `Quick test_ipc_bounded_by_width;
          Alcotest.test_case "dependences serialize" `Quick test_dependence_serializes;
          Alcotest.test_case "long latency costs" `Quick test_long_latency_ops_cost;
          Alcotest.test_case "thumb fetch pressure" `Quick
            test_thumb_reduces_fetch_pressure;
          Alcotest.test_case "cdp markers" `Quick test_cdp_markers_retire_at_decode;
          Alcotest.test_case "mispredict cost" `Quick test_mispredicts_cost_cycles;
          Alcotest.test_case "perfect bp" `Quick test_perfect_branch_never_slower;
          Alcotest.test_case "warmup" `Quick test_warm_faster_than_cold;
          Alcotest.test_case "stage accounting" `Quick test_stage_accounting_consistent;
          Alcotest.test_case "empty-population shares" `Quick
            test_empty_summary_shares;
          Alcotest.test_case "wrong-path fetch" `Quick test_wrong_path_fetch_pollutes;
          Alcotest.test_case "marker-dense: bare = observed" `Quick
            test_marker_dense_bare_equals_observed;
        ] );
      ( "components",
        [
          Alcotest.test_case "criticality table" `Quick test_criticality_table;
          Alcotest.test_case "efetch" `Quick test_efetch_learns_call_sequence;
          Alcotest.test_case "config variants" `Quick test_config_variants;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_perfect_predictor_never_mispredicts;
            prop_bare_equals_observed ] );
    ]
