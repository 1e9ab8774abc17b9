(* Tests for the compiler passes: hoisting legality/application, Thumb
   conversion, and the CritIC instrumentation pass. *)

module I = Isa.Instr
module Op = Isa.Opcode
module B = Prog.Block
module P = Prog.Program
module H = Transform.Hoist
module T = Transform.Thumb
module R = Transform.Report
module S = Transform.Scheme

let r = Isa.Reg.r

let mk uid ?dst ?(srcs = []) ?cond ?mem op =
  I.make ~uid ~opcode:op ?dst ~srcs ?cond ?mem ()

let block body = B.make ~id:0 ~func:0 ~body ~term:(B.Jump 0)

(* body where a chain 0 -> 2 -> 4 is interleaved with leaves *)
let chain_block () =
  block
    [|
      mk 0 ~dst:(r 0) Op.Alu;
      mk 1 ~dst:(r 6) ~srcs:[ r 0 ] Op.Alu;
      mk 2 ~dst:(r 1) ~srcs:[ r 0 ] Op.Alu;
      mk 3 ~dst:(r 6) ~srcs:[ r 1 ] Op.Alu;
      mk 4 ~dst:(r 2) ~srcs:[ r 1 ] Op.Alu;
      mk 5 ~dst:(r 6) ~srcs:[ r 2 ] Op.Alu;
    |]

(* The RAW producer of each source register per instruction — the
   dataflow semantics a legal hoist must preserve. *)
let producer_map (b : B.t) =
  let last = Array.make Isa.Reg.count (-1) in
  Array.to_list b.body
  |> List.concat_map (fun (ins : I.t) ->
         let reads =
           List.map
             (fun src -> (ins.uid, Isa.Reg.index src, last.(Isa.Reg.index src)))
             (I.regs_read ins)
         in
         List.iter
           (fun d -> last.(Isa.Reg.index d) <- ins.uid)
           (I.regs_written ins);
         reads)
  |> List.sort compare

let test_legal_hoist () =
  let b = chain_block () in
  Alcotest.(check bool) "chain is hoistable" true (H.legal b [ 0; 2; 4 ])

let test_illegal_raw () =
  (* member 2 reads r6, which skipped instr 1 writes *)
  let b =
    block
      [|
        mk 0 ~dst:(r 0) Op.Alu;
        mk 1 ~dst:(r 6) ~srcs:[ r 0 ] Op.Alu;
        mk 2 ~dst:(r 1) ~srcs:[ r 6 ] Op.Alu;
      |]
  in
  Alcotest.(check bool) "raw dependence blocks hoist" false (H.legal b [ 0; 2 ])

let test_illegal_war () =
  (* member 2 writes r0, which skipped instr 1 reads *)
  let b =
    block
      [|
        mk 0 ~dst:(r 1) Op.Alu;
        mk 1 ~dst:(r 6) ~srcs:[ r 0 ] Op.Alu;
        mk 2 ~dst:(r 0) ~srcs:[ r 1 ] Op.Alu;
      |]
  in
  Alcotest.(check bool) "war blocks hoist" false (H.legal b [ 0; 2 ])

let test_illegal_memory () =
  let mem = { I.region = 3; stride = 8; working_set = 64; randomness = 0.0 } in
  let b =
    block
      [|
        mk 0 ~dst:(r 0) Op.Alu;
        mk 1 ~srcs:[ r 0 ] ~mem Op.Store;
        mk 2 ~dst:(r 1) ~srcs:[ r 0 ] ~mem Op.Load;
      |]
  in
  Alcotest.(check bool) "load cannot pass same-region store" false
    (H.legal b [ 0; 2 ])

let test_memory_different_regions_ok () =
  let mem_a = { I.region = 3; stride = 8; working_set = 64; randomness = 0.0 } in
  let mem_b = { mem_a with I.region = 4 } in
  let b =
    block
      [|
        mk 0 ~dst:(r 0) Op.Alu;
        mk 1 ~srcs:[ r 0 ] ~mem:mem_a Op.Store;
        mk 2 ~dst:(r 1) ~srcs:[ r 0 ] ~mem:mem_b Op.Load;
      |]
  in
  Alcotest.(check bool) "distinct regions never alias" true (H.legal b [ 0; 2 ])

let test_hoist_apply () =
  let b = chain_block () in
  let b' = H.apply b [ 0; 2; 4 ] in
  let uids = Array.to_list (Array.map (fun (i : I.t) -> i.uid) b'.B.body) in
  Alcotest.(check (list int)) "members contiguous, others in order"
    [ 0; 2; 4; 1; 3; 5 ] uids;
  Alcotest.(check (list (triple int int int))) "dataflow preserved"
    (producer_map b) (producer_map b')

let test_hoist_rejects_illegal () =
  let b =
    block [| mk 0 ~dst:(r 0) Op.Alu; mk 1 ~dst:(r 6) ~srcs:[ r 0 ] Op.Alu;
             mk 2 ~dst:(r 1) ~srcs:[ r 6 ] Op.Alu |]
  in
  Alcotest.check_raises "apply refuses illegal"
    (Invalid_argument "Hoist.apply: illegal or malformed hoist") (fun () ->
      ignore (H.apply b [ 0; 2 ]))

(* ------------------------------ thumb ----------------------------- *)

(* OPP16 and Compress read no profile: compile them with an empty
   database. *)
let no_profile =
  {
    Profiler.Critic_db.sites = [];
    total_work = 0;
    ic_lengths = Util.Dist.Histogram.create ();
    ic_spreads = Util.Dist.Histogram.create ();
    chain_gaps = Util.Dist.Histogram.create ();
  }

(* Compress converts every run of at least two: compile a block that
   is one run and read its body back. *)
let compress_body body =
  let p = P.make ~entry:0 ~blocks:[ block body ] in
  let p', report = S.compile S.Compress no_profile p in
  ((P.block p' 0).B.body, report)

let test_convert_run () =
  let out, report =
    compress_body [| mk 0 ~dst:(r 0) Op.Alu; mk 1 ~dst:(r 1) ~srcs:[ r 0 ] Op.Alu |]
  in
  Alcotest.(check int) "cdp + 2 instrs" 3 (Array.length out);
  Alcotest.(check int) "converted" 2 report.R.instrs_converted;
  Alcotest.(check int) "one cdp" 1 report.R.cdp_inserted;
  match Array.to_list out with
  | cdp :: rest ->
    Alcotest.(check bool) "first is cdp" true (I.opcode cdp = Op.Cdp_switch);
    Alcotest.(check int) "cdp count" 2 (I.cdp_count cdp);
    List.iter
      (fun (i : I.t) ->
        Alcotest.(check bool) "thumb encoded" true (I.encoding i = I.Thumb16))
      rest
  | [] -> Alcotest.fail "empty output"

let test_convert_long_run_splits () =
  let out, report =
    compress_body (Array.init 12 (fun i -> mk i ~dst:(r (i mod 8)) Op.Alu))
  in
  Alcotest.(check int) "two cdps for 12 instrs" 2 report.R.cdp_inserted;
  Alcotest.(check int) "total out" 14 (Array.length out)

let test_opp16_min_run () =
  (* runs of 2 are skipped by opp16 but taken by compress *)
  let body =
    [|
      mk 0 ~dst:(r 0) Op.Alu;
      mk 1 ~dst:(r 1) Op.Alu;
      mk 2 ~dst:(r 12) Op.Alu; (* obstacle: high register *)
      mk 3 ~dst:(r 2) Op.Alu;
      mk 4 ~dst:(r 3) Op.Alu;
      mk 5 ~dst:(r 4) Op.Alu;
    |]
  in
  let p = P.make ~entry:0 ~blocks:[ block body ] in
  let _, opp = S.compile S.Opp16 no_profile p in
  Alcotest.(check int) "opp16 converts only the >=3 run" 3
    opp.R.instrs_converted;
  let _, comp = S.compile S.Compress no_profile p in
  Alcotest.(check int) "compress takes both runs" 5 comp.R.instrs_converted

let test_opp16_skips_unconvertible () =
  let body =
    [| mk 0 ~cond:I.Ne ~dst:(r 0) Op.Alu; mk 1 ~cond:I.Ne ~dst:(r 1) Op.Alu |]
  in
  let p = P.make ~entry:0 ~blocks:[ block body ] in
  let p', rep = S.compile S.Opp16 no_profile p in
  Alcotest.(check int) "nothing converted" 0 rep.R.instrs_converted;
  Alcotest.(check int) "program unchanged" (P.instr_count p) (P.instr_count p')

(* --------------------------- critic pass -------------------------- *)

let profiled_program () =
  let app = { (Option.get (Workload.Apps.find "Maps")) with seed = 55 } in
  let program = Workload.Gen.program app in
  let path = Prog.Walk.path_for_instrs program ~seed:5 ~instrs:20_000 in
  let db =
    Profiler.Profile_run.profile_stream
      ~total_events:(Prog.Trace.length_of_path program path)
      (Prog.Trace.Stream.of_program program ~seed:5 path)
  in
  (program, db, path)

let test_critic_pass_applies () =
  let program, db, _ = profiled_program () in
  let program', report = S.compile S.Critic db program in
  Alcotest.(check bool) "sites applied" true (report.R.sites_applied > 0);
  Alcotest.(check bool) "instrs converted" true (report.R.instrs_converted > 0);
  Alcotest.(check bool) "cdps inserted" true (report.R.cdp_inserted > 0);
  Alcotest.(check int) "instr count grows by cdp count"
    (P.instr_count program + report.R.cdp_inserted)
    (P.instr_count program');
  Alcotest.(check bool) "code shrinks despite extra markers" true
    (P.code_size program' < P.code_size program)

let test_critic_pass_dataflow_preserved () =
  let program, db, _ = profiled_program () in
  let program', _ = S.compile S.Hoist db program in
  (* hoist-only: per-block RAW producer maps must be identical *)
  Array.iter2
    (fun (b : B.t) (b' : B.t) ->
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "block %d dataflow" b.B.id)
        (producer_map b) (producer_map b'))
    (P.blocks program) (P.blocks program')

let test_critic_pass_work_preserved () =
  let program, db, path = profiled_program () in
  let program', _ = S.compile S.Critic db program in
  let t = Prog.Trace.expand program ~seed:5 path in
  let t' = Prog.Trace.expand program' ~seed:5 path in
  Alcotest.(check int) "same work across transform"
    (Prog.Trace.work_count t) (Prog.Trace.work_count t')

let test_critic_pass_all_or_nothing () =
  let program, db, _ = profiled_program () in
  let _, report = S.compile S.Critic db program in
  (* unconvertible sites are skipped entirely, never partially *)
  Alcotest.(check int) "considered = applied + rejections"
    report.R.sites_considered
    (report.R.sites_applied + report.R.rejected_stale
    + report.R.rejected_legality + report.R.rejected_convertibility)

let test_critic_branches_mode () =
  let program, db, _ = profiled_program () in
  let program', report = S.compile S.Critic_branches db program in
  Alcotest.(check bool) "switch branches inserted" true
    (report.R.switch_branches_inserted >= 2 * report.R.sites_applied);
  Alcotest.(check int) "no cdp in branches mode" 0 report.R.cdp_inserted;
  Alcotest.(check bool) "program has body branches" true
    (let found = ref false in
     P.iter_instrs
       (fun _ i -> if I.opcode i = Op.Branch then found := true)
       program';
     !found)

let test_critic_ideal_converts_more () =
  let program, db, _ = profiled_program () in
  let _, realistic = S.compile S.Critic db program in
  let _, ideal = S.compile S.Critic_ideal db program in
  Alcotest.(check bool) "ideal converts at least as much" true
    (ideal.R.instrs_converted >= realistic.R.instrs_converted)

let test_chain_tags () =
  let program, db, _ = profiled_program () in
  let program', _ = S.compile S.Critic db program in
  let tagged = ref 0 in
  P.iter_instrs
    (fun _ i -> if i.I.chain <> None then incr tagged)
    program';
  Alcotest.(check bool) "chain tags present" true (!tagged > 0);
  (* tags carry consistent positions *)
  P.iter_instrs
    (fun _ i ->
      match i.I.chain with
      | Some tag ->
        Alcotest.(check bool) "pos < len" true (tag.I.pos < tag.I.len)
      | None -> ())
    program'

(* ------------------------------ verify ----------------------------- *)

let test_verify_equivalent_blocks () =
  let b = chain_block () in
  Alcotest.(check bool) "block equals itself" true
    (Transform.Verify.dataflow_equivalent b b);
  let hoisted = H.apply b [ 0; 2; 4 ] in
  Alcotest.(check bool) "legal hoist is equivalent" true
    (Transform.Verify.dataflow_equivalent b hoisted)

let test_verify_detects_breakage () =
  let b = chain_block () in
  (* swapping instructions 0 and 1 changes who produces r0 for instr 1 *)
  let body = Array.copy b.B.body in
  let tmp = body.(0) in
  body.(0) <- body.(1);
  body.(1) <- tmp;
  let broken = B.with_body body b in
  Alcotest.(check bool) "illegal reorder detected" false
    (Transform.Verify.dataflow_equivalent b broken)

let test_verify_ignores_markers () =
  let b = chain_block () in
  let with_cdp =
    B.with_body (Array.append [| I.cdp ~uid:99 ~following:3 |] b.B.body) b
  in
  Alcotest.(check bool) "cdp markers are transparent" true
    (Transform.Verify.dataflow_equivalent b with_cdp)

(* Every scheme of the table, compiled as the simulations compile it. *)
let test_verify_whole_passes () =
  let program, db, _ = profiled_program () in
  List.iter
    (fun scheme ->
      match Transform.Verify.check_pass (S.compile scheme db) program with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail (S.name scheme ^ ": " ^ msg))
    S.all

(* ----------------------------- sparse ----------------------------- *)

let program_digest p =
  ignore (P.max_uid p);
  Digest.to_hex (Digest.string (Marshal.to_string p []))

(* Compiling is sparse: every pass visits only the blocks the database
   names, and every other block of the output is the input's block
   itself, not a copy.  A chain tag planted in a block the database does
   not name is never read, so that block is shared too. *)
let test_unnamed_blocks_shared () =
  let ctx =
    Critics.Run.prepare ~instrs:20_000 (Option.get (Workload.Apps.find "Acrobat"))
  in
  let db = ctx.Critics.Run.db in
  let named = Hashtbl.create 64 in
  List.iter
    (fun (s : Profiler.Critic_db.site) -> Hashtbl.replace named s.block_id ())
    db.Profiler.Critic_db.sites;
  let stray =
    List.find
      (fun id ->
        (not (Hashtbl.mem named id))
        && Array.length (P.block ctx.Critics.Run.program id).B.body >= 2)
      (List.init (P.num_blocks ctx.Critics.Run.program) Fun.id)
  in
  let plant (b : B.t) =
    let body = Array.copy b.B.body in
    for pos = 0 to 1 do
      body.(pos) <- I.with_chain (Some { I.chain_id = 999; pos; len = 2 }) body.(pos)
    done;
    B.with_body body b
  in
  let program = P.update_blocks plant [| stray |] ctx.Critics.Run.program in
  let program', report = S.compile S.Critic db program in
  Alcotest.(check bool) "sites applied" true (report.R.sites_applied > 0);
  let rewritten = ref 0 in
  Array.iteri
    (fun id (b : B.t) ->
      if Hashtbl.mem named id then
        (if b != P.block program' id then incr rewritten)
      else if b != P.block program' id then
        Alcotest.failf "block %d is not named by the database but was copied"
          id)
    (P.blocks program);
  Alcotest.(check bool) "some named block rewritten" true (!rewritten > 0);
  (* A pass that changes no block returns its input program itself:
     narrow-convert finds every member already converted. *)
  let env = Transform.Pass.env db in
  let again, _ = Transform.Narrow_convert.pass.Transform.Pass.apply env program' in
  Alcotest.(check bool) "nothing to convert: same program" true (again == program')

(* A site naming a block id the program does not have is ignored, in
   every scheme: the program and the report equal those of the
   database without it. *)
let test_out_of_range_block_ignored () =
  let program, db, _ = profiled_program () in
  let site = List.hd db.Profiler.Critic_db.sites in
  let bogus =
    List.map
      (fun block_id -> { site with Profiler.Critic_db.block_id })
      [ -1; P.num_blocks program; P.num_blocks program + 1000; max_int ]
  in
  let db' = { db with Profiler.Critic_db.sites = db.sites @ bogus } in
  List.iter
    (fun scheme ->
      let p, r = S.compile scheme db program in
      let p', r' = S.compile scheme db' program in
      Alcotest.(check string) (S.name scheme ^ ": same program")
        (program_digest p) (program_digest p');
      Alcotest.(check bool) (S.name scheme ^ ": same report") true (r = r'))
    S.all

let () =
  Alcotest.run "transform"
    [
      ( "hoist",
        [
          Alcotest.test_case "legal chain" `Quick test_legal_hoist;
          Alcotest.test_case "illegal raw" `Quick test_illegal_raw;
          Alcotest.test_case "illegal war" `Quick test_illegal_war;
          Alcotest.test_case "illegal memory" `Quick test_illegal_memory;
          Alcotest.test_case "regions disambiguate" `Quick
            test_memory_different_regions_ok;
          Alcotest.test_case "apply" `Quick test_hoist_apply;
          Alcotest.test_case "apply rejects" `Quick test_hoist_rejects_illegal;
        ] );
      ( "thumb",
        [
          Alcotest.test_case "convert run" `Quick test_convert_run;
          Alcotest.test_case "long runs split" `Quick test_convert_long_run_splits;
          Alcotest.test_case "min run" `Quick test_opp16_min_run;
          Alcotest.test_case "skips unconvertible" `Quick
            test_opp16_skips_unconvertible;
        ] );
      ( "verify",
        [
          Alcotest.test_case "equivalence" `Quick test_verify_equivalent_blocks;
          Alcotest.test_case "detects breakage" `Quick test_verify_detects_breakage;
          Alcotest.test_case "markers transparent" `Quick test_verify_ignores_markers;
          Alcotest.test_case "whole passes verified" `Quick test_verify_whole_passes;
        ] );
      ( "critic_pass",
        [
          Alcotest.test_case "applies" `Quick test_critic_pass_applies;
          Alcotest.test_case "dataflow preserved" `Quick
            test_critic_pass_dataflow_preserved;
          Alcotest.test_case "work preserved" `Quick test_critic_pass_work_preserved;
          Alcotest.test_case "all or nothing" `Quick test_critic_pass_all_or_nothing;
          Alcotest.test_case "branches mode" `Quick test_critic_branches_mode;
          Alcotest.test_case "ideal converts more" `Quick
            test_critic_ideal_converts_more;
          Alcotest.test_case "chain tags" `Quick test_chain_tags;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "unnamed blocks shared" `Quick
            test_unnamed_blocks_shared;
          Alcotest.test_case "out-of-range block ignored" `Quick
            test_out_of_range_block_ignored;
        ] );
    ]
