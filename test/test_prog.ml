(* Tests for programs, walks and trace expansion. *)

module I = Isa.Instr
module Op = Isa.Opcode
module B = Prog.Block
module P = Prog.Program

let r = Isa.Reg.r

let mk uid ?dst ?(srcs = []) ?mem op = I.make ~uid ~opcode:op ?dst ~srcs ?mem ()

let simple_block id ?(n = 4) term =
  let body = Array.init n (fun i -> mk ((id * 100) + i) ~dst:(r (i mod 8)) Op.Alu) in
  B.make ~id ~func:0 ~body ~term

(* A tiny two-block loop: b0 -> b1, b1 jumps back to b0. *)
let tiny_program () =
  P.make ~entry:0
    ~blocks:[ simple_block 0 (B.Fallthrough 1); simple_block 1 (B.Jump 0) ]

let test_program_validation () =
  Alcotest.check_raises "dangling successor"
    (Invalid_argument "Program.make: dangling successor") (fun () ->
      ignore (P.make ~entry:0 ~blocks:[ simple_block 0 (B.Jump 5) ]));
  Alcotest.check_raises "bad ids"
    (Invalid_argument "Program.make: block ids must be dense in [0, n)")
    (fun () -> ignore (P.make ~entry:0 ~blocks:[ simple_block 3 (B.Jump 3) ]))

(* A generated program shares its operands and memory signatures: it
   takes at most 70 % of the heap words of a copy in which every
   instruction owns its operands, a [No_sharing] marshal round trip
   (unshared, the ratio is about 0.97). *)
let test_generated_programs_share_operands () =
  List.iter
    (fun name ->
      let program =
        Workload.Gen.program (Option.get (Workload.Apps.find name))
      in
      let copy : P.t =
        Marshal.from_string
          (Marshal.to_string program [ Marshal.No_sharing ])
          0
      in
      let words v = Obj.reachable_words (Obj.repr v) in
      let ratio = float_of_int (words program) /. float_of_int (words copy) in
      if ratio > 0.70 then
        Alcotest.failf "%s: %d heap words, %.2f of an unshared copy's %d"
          name (words program) ratio (words copy))
    [ "Acrobat"; "Music"; "lbm" ]

(* Six words of record plus one array slot per instruction, and the
   rest shared or rare: the generated programs stay under 7.5 reachable
   heap words per static instruction. *)
let test_generated_programs_words_per_instr () =
  List.iter
    (fun name ->
      let program =
        Workload.Gen.program (Option.get (Workload.Apps.find name))
      in
      let words = Obj.reachable_words (Obj.repr program) in
      let per_instr = float_of_int words /. float_of_int (P.instr_count program) in
      if per_instr > 7.5 then
        Alcotest.failf "%s: %d heap words, %.2f per instruction" name words
          per_instr)
    [ "Acrobat"; "Music"; "lbm" ]

let test_layout () =
  let p = tiny_program () in
  Alcotest.(check int) "base address" Prog.Program.code_base (P.block_addr p 0);
  Alcotest.(check bool) "second block after first" true
    (P.block_addr p 1 >= P.block_addr p 0 + B.size_bytes (P.block p 0));
  Alcotest.(check int) "aligned" 0 (P.block_addr p 1 land 3);
  Alcotest.(check int) "instr count" 8 (P.instr_count p)

let test_layout_shrinks_with_thumb () =
  let p = tiny_program () in
  let p' =
    P.map_blocks
      (fun b -> B.with_body (Array.map (I.with_encoding I.Thumb16) b.B.body) b)
      p
  in
  Alcotest.(check bool) "thumb code smaller" true
    (P.code_size p' < P.code_size p)

let test_map_blocks_guards_cfg () =
  let p = tiny_program () in
  Alcotest.check_raises "term change rejected"
    (Invalid_argument "Program.map_blocks: pass must preserve CFG shape")
    (fun () ->
      ignore
        (P.map_blocks
           (fun b ->
             if b.B.id = 0 then { b with B.term = B.Jump 0 } else b)
           p))

let test_find_instr () =
  let p = tiny_program () in
  match P.find_instr p 101 with
  | Some (b, idx) ->
    Alcotest.(check int) "block" 1 b.B.id;
    Alcotest.(check int) "index" 1 idx
  | None -> Alcotest.fail "instr 101 not found"

let test_walk_deterministic () =
  let p = tiny_program () in
  let a = Prog.Walk.path_for_instrs p ~seed:5 ~instrs:100 in
  let b = Prog.Walk.path_for_instrs p ~seed:5 ~instrs:100 in
  Alcotest.(check (array int)) "same path" a b

let test_walk_visits () =
  let p = tiny_program () in
  let path = Prog.Walk.path_visits p ~seed:1 ~visits:7 in
  Alcotest.(check int) "exact visit count" 7 (Array.length path);
  Alcotest.(check int) "starts at entry" 0 path.(0);
  (* deterministic alternation of the loop *)
  Alcotest.(check (array int)) "alternates" [| 0; 1; 0; 1; 0; 1; 0 |] path

let test_walk_respects_bias () =
  let blocks =
    [
      B.make ~id:0 ~func:0 ~body:[| mk 1 ~dst:(r 0) Op.Alu |]
        ~term:(B.Cond_branch { taken = 0; not_taken = 1; taken_bias = 0.9 });
      simple_block 1 (B.Jump 0);
    ]
  in
  let p = P.make ~entry:0 ~blocks in
  let path = Prog.Walk.path_visits p ~seed:11 ~visits:2000 in
  let self = Array.to_list path |> List.filter (( = ) 0) |> List.length in
  Alcotest.(check bool) "block 0 dominates (bias 0.9)" true
    (self > 1500)

let test_call_return () =
  let blocks =
    [
      B.make ~id:0 ~func:0 ~body:[| mk 1 ~dst:(r 0) Op.Alu |]
        ~term:(B.Call { callee = 2; return_to = 1 });
      simple_block 1 (B.Jump 0);
      B.make ~id:2 ~func:1 ~body:[| mk 2 ~dst:(r 1) Op.Alu |] ~term:B.Return;
    ]
  in
  let p = P.make ~entry:0 ~blocks in
  let path = Prog.Walk.path_visits p ~seed:3 ~visits:6 in
  Alcotest.(check (array int)) "call/return sequence" [| 0; 2; 1; 0; 2; 1 |] path

let expand p seed n =
  Prog.Trace.expand p ~seed (Prog.Walk.path_for_instrs p ~seed ~instrs:n)

let test_trace_next_pc_chain () =
  let p = tiny_program () in
  let t = expand p 5 200 in
  Array.iteri
    (fun i (e : Prog.Trace.event) ->
      if i + 1 < Array.length t then
        Alcotest.(check int)
          (Printf.sprintf "next_pc of event %d" i)
          t.(i + 1).pc e.next_pc;
      Alcotest.(check int) "seq" i e.seq)
    t

let test_trace_fetch_breaks () =
  let p = tiny_program () in
  let t = expand p 5 200 in
  Array.iter
    (fun (e : Prog.Trace.event) ->
      let sequential = e.next_pc = e.pc + e.size in
      if not sequential then
        Alcotest.(check bool) "non-sequential implies break" true e.fetch_break)
    t

let test_trace_work_count () =
  let p = tiny_program () in
  let t = expand p 5 200 in
  (* every event here is work: ALU bodies + synthetic terminators *)
  Alcotest.(check int) "work equals events" (Array.length t)
    (Prog.Trace.work_count t)

let test_mem_addresses_deterministic_and_bounded () =
  let mem = { I.region = 2; stride = 16; working_set = 256; randomness = 0.3 } in
  let blocks =
    [
      B.make ~id:0 ~func:0
        ~body:[| I.make ~uid:1 ~opcode:Op.Load ~dst:(r 0) ~mem () |]
        ~term:(B.Jump 0);
    ]
  in
  let p = P.make ~entry:0 ~blocks in
  let t1 = expand p 9 100 and t2 = expand p 9 100 in
  Array.iteri
    (fun i (e : Prog.Trace.event) ->
      Alcotest.(check int) "deterministic addr" t2.(i).mem_addr e.mem_addr;
      if e.mem_addr >= 0 then begin
        Alcotest.(check bool) "aligned to stride" true (e.mem_addr mod 16 = 0);
        let base = 0x4000_0000 + (2 * 0x0100_0000) in
        Alcotest.(check bool) "within working set" true
          (e.mem_addr >= base && e.mem_addr < base + 256)
      end)
    t1

let test_cond_branch_taken_matches_path () =
  let blocks =
    [
      B.make ~id:0 ~func:0 ~body:[| mk 1 ~dst:(r 0) Op.Alu |]
        ~term:(B.Cond_branch { taken = 2; not_taken = 1; taken_bias = 0.5 });
      simple_block 1 (B.Jump 0);
      simple_block 2 (B.Jump 0);
    ]
  in
  let p = P.make ~entry:0 ~blocks in
  let path = Prog.Walk.path_visits p ~seed:13 ~visits:50 in
  let t = Prog.Trace.expand p ~seed:13 path in
  Array.iteri
    (fun i (e : Prog.Trace.event) ->
      if e.is_cond_branch && i + 1 < Array.length t then begin
        let next_block = t.(i + 1).block_id in
        Alcotest.(check bool) "taken iff jumped to taken target" e.taken
          (next_block = 2)
      end)
    t

(* property: expansion length is stable and bodies carry body_index *)
let prop_body_index =
  QCheck.Test.make ~name:"body_index matches static position" ~count:50
    QCheck.(int_range 0 1000)
    (fun seed ->
      let p = tiny_program () in
      let t = expand p seed 100 in
      Array.for_all
        (fun (e : Prog.Trace.event) ->
          if e.body_index >= 0 then
            let b = P.block p e.block_id in
            e.body_index < Array.length b.B.body
            && (b.B.body.(e.body_index)).I.uid = e.instr.I.uid
          else Isa.Opcode.is_control (I.opcode e.instr))
        t)

(* property: the pull cursor and the materializing expander are the
   same stream.  Exercises the batch-refill protocol (next must deliver
   every event exactly once, exhaustion is stable) against arbitrary
   fuzzer-generated programs, where block shapes — empty bodies,
   fallthrough-only blocks, call/return — hit every refill edge
   case. *)
let prop_stream_equals_expand =
  QCheck.Test.make ~name:"Stream.of_program replays expand event-for-event"
    ~count:60
    QCheck.(pair Workload.Fuzz.arbitrary small_nat)
    (fun (genome, seed) ->
      let p = Workload.Fuzz.build genome in
      let path = Prog.Walk.path_for_instrs p ~seed ~instrs:500 in
      let reference = Prog.Trace.expand p ~seed path in
      let c = Prog.Trace.Stream.of_program p ~seed path in
      Array.iteri
        (fun i want ->
          match Prog.Trace.Stream.next c with
          | Some got when got = want -> ()
          | Some got ->
            QCheck.Test.fail_reportf
              "event %d diverges: uid %d pc 0x%x <> uid %d pc 0x%x" i
              got.instr.uid got.pc want.instr.uid want.pc
          | None -> QCheck.Test.fail_reportf "stream short at event %d" i)
        reference;
      Prog.Trace.Stream.next c = None
      && Prog.Trace.Stream.next c = None
      && Array.length reference = Prog.Trace.length_of_path p path)

(* property: update_blocks lays its result out from the input's block
   strides and carries max_uid over, instead of walking the program;
   on fuzzed programs with a random subset of blocks rewritten, every
   block address, the code size and the largest uid must equal
   Program.make's on the same blocks.  The rewrites change each body's
   byte size: a CDP marker with a fresh uid in front (the largest uid
   grows), the last instruction dropped (in the last block, that is
   the largest uid), or a 4-byte NOP appended. *)
let prop_update_blocks_layout =
  QCheck.Test.make ~name:"update_blocks layout and max_uid = make's"
    ~count:200
    QCheck.(
      pair Workload.Fuzz.arbitrary
        (list_of_size Gen.(0 -- 6) (pair small_nat (int_bound 2))))
    (fun (genome, edits) ->
      let p = Workload.Fuzz.build genome in
      let n = P.num_blocks p in
      let edit = Hashtbl.create 8 in
      List.iter (fun (b, k) -> Hashtbl.replace edit (b mod n) k) edits;
      (* Block id n is not in the program: it must be ignored. *)
      let ids =
        Array.of_list
          (List.sort_uniq compare (n :: List.of_seq (Hashtbl.to_seq_keys edit)))
      in
      let fresh = ref (P.max_uid p) in
      let fresh () = incr fresh; !fresh in
      let rewrite (b : B.t) =
        let body = b.B.body and len = Array.length b.B.body in
        match Hashtbl.find edit b.B.id with
        | 0 -> B.with_body (Array.append [| I.cdp ~uid:(fresh ()) ~following:1 |] body) b
        | 1 when len > 0 -> B.with_body (Array.sub body 0 (len - 1)) b
        | _ -> B.with_body (Array.append body [| mk (fresh ()) Op.Nop |]) b
      in
      let p' = P.update_blocks rewrite ids p in
      let q = P.make ~entry:(P.entry p) ~blocks:(Array.to_list (P.blocks p')) in
      P.code_size p' = P.code_size q
      && P.max_uid p' = P.max_uid q
      && List.for_all
           (fun id -> P.block_addr p' id = P.block_addr q id)
           (List.init n Fun.id))

(* Every scheme's compiled programs, with the baseline first, over a
   fuzzed program's profile. *)
let compiled_programs genome seed =
  let p =
    Oracle.Differential.prepare ~instrs:500 (Workload.Fuzz.build genome) ~seed
  in
  ( p,
    List.map
      (fun s ->
        ( Transform.Scheme.name s,
          fst (Transform.Scheme.compile s p.db p.program) ))
      Transform.Scheme.all )

(* property: the stream keys a memory instruction's address on its
   block's visit count; the old definition counted executions per uid.
   The two agree when uids are unique (next property).  The reference
   here is that old definition, expanded in the test: per-uid counts
   over the walk, every body instruction then the terminator. *)
let prop_block_counts_equal_uid_counts =
  QCheck.Test.make ~name:"mem_addr column = per-uid expansion, every scheme"
    ~count:40
    QCheck.(pair Workload.Fuzz.arbitrary small_nat)
    (fun (genome, seed) ->
      let p, programs = compiled_programs genome seed in
      List.for_all
        (fun (name, q) ->
          let counts = Hashtbl.create 64 in
          let expected = ref [] in
          Array.iter
            (fun id ->
              let b = P.block q id in
              Array.iter
                (fun (ins : I.t) ->
                  expected :=
                    (match ins.mem with
                    | None -> -1
                    | Some m ->
                      let count =
                        Option.value ~default:0
                          (Hashtbl.find_opt counts ins.uid)
                      in
                      Hashtbl.replace counts ins.uid (count + 1);
                      Prog.Trace.mem_address ~seed ~uid:ins.uid ~count m)
                    :: !expected)
                b.B.body;
              match b.B.term with
              | B.Fallthrough _ -> ()
              | _ -> expected := -1 :: !expected)
            p.path;
          let got = ref [] in
          let c = Prog.Trace.Stream.of_program q ~seed p.path in
          let lo = ref (Prog.Trace.Stream.take c) in
          while !lo >= 0 do
            for i = !lo to c.lim - 1 do
              got := c.mem_addr.(i) :: !got
            done;
            lo := Prog.Trace.Stream.take c
          done;
          !got = !expected
          || QCheck.Test.fail_reportf "%s: mem_addr column diverges" name)
        programs)

(* property: the invariant the per-block counters rest on — no uid
   occurs twice in a program — holds for every scheme's output. *)
let prop_compiled_uids_unique =
  QCheck.Test.make ~name:"every scheme keeps uids unique" ~count:60
    QCheck.(pair Workload.Fuzz.arbitrary small_nat)
    (fun (genome, seed) ->
      let _, programs = compiled_programs genome seed in
      List.for_all
        (fun (name, q) ->
          let seen = Hashtbl.create 256 in
          P.iter_instrs
            (fun b (ins : I.t) ->
              if Hashtbl.mem seen ins.uid then
                QCheck.Test.fail_reportf "%s: uid %d repeated (block %d)" name
                  ins.uid b.B.id;
              Hashtbl.add seen ins.uid ())
            q;
          true)
        programs)

(* A cursor's tables are per block: over a three-block program whose
   uids reach 10^6, creating and draining a cursor allocates the same
   as over the same program with small uids, and a few columns' worth
   in all (a per-uid counter would be 10^6 words).  As in test_isa's
   allocation test, one run and four runs are measured and their
   difference is the per-cursor cost; [Gc.allocated_bytes] counts the
   columns, which go straight to the major heap.  Each measurement
   starts after a full major collection: a cycle ending mid-measurement
   shows up in the counters as tens of thousands of spurious words. *)
let test_cursor_allocation_per_block () =
  let program base =
    let mem =
      { I.region = 1; stride = 8; working_set = 512; randomness = 0.5 }
    in
    let ld k = I.make ~uid:(base + k) ~opcode:Op.Load ~dst:(r 1) ~mem () in
    let alu k = mk (base + k) ~dst:(r 2) ~srcs:[ r 1 ] Op.Alu in
    P.make ~entry:0
      ~blocks:
        [
          B.make ~id:0 ~func:0 ~body:[| ld 0; alu 1 |]
            ~term:
              (B.Cond_branch { taken = 2; not_taken = 1; taken_bias = 0.5 });
          B.make ~id:1 ~func:0 ~body:[| alu 2; ld 3 |] ~term:(B.Jump 2);
          B.make ~id:2 ~func:0 ~body:[| ld 4; alu 5 |] ~term:(B.Jump 0);
        ]
  in
  let cursor_words q =
    let path = Prog.Walk.path_visits q ~seed:5 ~visits:3000 in
    let drain () =
      let c = Prog.Trace.Stream.of_program q ~seed:5 path in
      let sum = ref 0 in
      let lo = ref (Prog.Trace.Stream.take c) in
      while !lo >= 0 do
        for i = !lo to c.lim - 1 do
          sum := !sum + c.mem_addr.(i)
        done;
        lo := Prog.Trace.Stream.take c
      done;
      !sum
    in
    let measure times =
      Gc.full_major ();
      let b0 = Gc.allocated_bytes () in
      for _ = 1 to times do
        ignore (Sys.opaque_identity (drain ()))
      done;
      (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8)
    in
    ignore (measure 1);
    let d1 = measure 1 in
    let d4 = measure 4 in
    (d4 -. d1) /. 3.0
  in
  let small = cursor_words (program 0) in
  let large = cursor_words (program (1_000_000 - 5)) in
  if large -. small > 64.0 || large > 16_384.0 then
    Alcotest.failf
      "a cursor allocates %.0f words with uids near 10^6, %.0f with small uids"
      large small

let () =
  Alcotest.run "prog"
    [
      ( "program",
        [
          Alcotest.test_case "validation" `Quick test_program_validation;
          Alcotest.test_case "layout" `Quick test_layout;
          Alcotest.test_case "thumb shrinks layout" `Quick test_layout_shrinks_with_thumb;
          Alcotest.test_case "map_blocks guards CFG" `Quick test_map_blocks_guards_cfg;
          Alcotest.test_case "find_instr" `Quick test_find_instr;
          Alcotest.test_case "generated programs share operands" `Quick
            test_generated_programs_share_operands;
          Alcotest.test_case "generated programs: words per instruction"
            `Quick test_generated_programs_words_per_instr;
        ] );
      ( "walk",
        [
          Alcotest.test_case "deterministic" `Quick test_walk_deterministic;
          Alcotest.test_case "visit count" `Quick test_walk_visits;
          Alcotest.test_case "bias respected" `Quick test_walk_respects_bias;
          Alcotest.test_case "call/return" `Quick test_call_return;
        ] );
      ( "trace",
        [
          Alcotest.test_case "next_pc chain" `Quick test_trace_next_pc_chain;
          Alcotest.test_case "fetch breaks" `Quick test_trace_fetch_breaks;
          Alcotest.test_case "work count" `Quick test_trace_work_count;
          Alcotest.test_case "mem addresses" `Quick
            test_mem_addresses_deterministic_and_bounded;
          Alcotest.test_case "cond branch outcomes" `Quick
            test_cond_branch_taken_matches_path;
          Alcotest.test_case "cursor allocation per block" `Quick
            test_cursor_allocation_per_block;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_body_index; prop_stream_equals_expand;
            prop_update_blocks_layout; prop_block_counts_equal_uid_counts;
            prop_compiled_uids_unique ] );
    ]
