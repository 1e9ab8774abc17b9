(* Tests for the ISA library: registers, opcode classes, instructions
   and the Thumb-convertibility rules the CritIC pass relies on. *)

module Reg = Isa.Reg
module Op = Isa.Opcode
module I = Isa.Instr

let test_reg_bounds () =
  Alcotest.check_raises "negative register"
    (Invalid_argument "Reg.r: index out of range") (fun () ->
      ignore (Reg.r (-1)));
  Alcotest.check_raises "register 16"
    (Invalid_argument "Reg.r: index out of range") (fun () ->
      ignore (Reg.r 16));
  Alcotest.(check int) "pc is r15" 15 (Reg.index Reg.pc);
  Alcotest.(check int) "sp is r13" 13 (Reg.index Reg.sp);
  Alcotest.(check int) "lr is r14" 14 (Reg.index Reg.lr)

let test_thumb_addressable () =
  Alcotest.(check bool) "r10 ok" true (Reg.thumb_addressable (Reg.r 10));
  Alcotest.(check bool) "r11 not" false (Reg.thumb_addressable (Reg.r 11));
  Alcotest.(check bool) "r0 ok" true (Reg.thumb_addressable (Reg.r 0))

let test_latencies () =
  Alcotest.(check int) "alu 1" 1 (Op.exec_latency Op.Alu);
  Alcotest.(check bool) "div long" true (Op.is_long_latency Op.Div);
  Alcotest.(check bool) "alu short" false (Op.is_long_latency Op.Alu);
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Op.to_string op ^ " has positive latency")
        true
        (Op.exec_latency op > 0))
    Op.all

let test_opcode_index () =
  Alcotest.(check int) "count" (List.length Op.all) Op.count;
  List.iteri
    (fun k op ->
      Alcotest.(check int) (Op.to_string op ^ " index") k (Op.to_index op);
      Alcotest.(check bool) (Op.to_string op ^ " back") true
        (Op.of_index k = op))
    Op.all;
  Alcotest.check_raises "index count"
    (Invalid_argument "Opcode.of_index: out of range") (fun () ->
      ignore (Op.of_index Op.count))

let test_opcode_classes () =
  Alcotest.(check bool) "load is memory" true (Op.is_memory Op.Load);
  Alcotest.(check bool) "store is memory" true (Op.is_memory Op.Store);
  Alcotest.(check bool) "alu not memory" false (Op.is_memory Op.Alu);
  Alcotest.(check bool) "branch is control" true (Op.is_control Op.Branch);
  Alcotest.(check bool) "call is control" true (Op.is_control Op.Call);
  Alcotest.(check bool) "cdp not thumb-expressible" false
    (Op.thumb_expressible Op.Cdp_switch)

let mk ?dst ?(srcs = []) ?cond ?encoding ?mem op =
  I.make ~uid:1 ~opcode:op ?dst ~srcs ?cond ?encoding ?mem ()

let test_sizes () =
  Alcotest.(check int) "arm32 is 4 bytes" 4 (I.size_bytes (mk Op.Alu));
  Alcotest.(check int) "thumb is 2 bytes" 2
    (I.size_bytes (mk ~encoding:I.Thumb16 ~dst:(Reg.r 1) Op.Alu))

let test_thumb_convertibility () =
  let plain = mk ~dst:(Reg.r 2) ~srcs:[ Reg.r 3 ] Op.Alu in
  Alcotest.(check bool) "plain convertible" true (I.thumb_convertible plain);
  let predicated = mk ~dst:(Reg.r 2) ~cond:I.Ne Op.Alu in
  Alcotest.(check bool) "predicated not" false (I.thumb_convertible predicated);
  let high = mk ~dst:(Reg.r 12) Op.Alu in
  Alcotest.(check bool) "high dst not" false (I.thumb_convertible high);
  let high_src = mk ~dst:(Reg.r 2) ~srcs:[ Reg.r 11 ] Op.Alu in
  Alcotest.(check bool) "high src not" false (I.thumb_convertible high_src)

let test_make_rejects_bad_thumb () =
  Alcotest.check_raises "thumb predicated rejected"
    (Invalid_argument "Instr.make: instruction not representable in Thumb16")
    (fun () -> ignore (mk ~cond:I.Ne ~encoding:I.Thumb16 Op.Alu))

let test_make_rejects_mem_on_alu () =
  let mem = { I.region = 0; stride = 4; working_set = 64; randomness = 0.0 } in
  Alcotest.check_raises "mem on alu rejected"
    (Invalid_argument "Instr.make: memory signature on non-memory opcode")
    (fun () -> ignore (mk ~mem Op.Alu))

let test_with_encoding () =
  let plain = mk ~dst:(Reg.r 2) Op.Alu in
  let t = I.with_encoding I.Thumb16 plain in
  Alcotest.(check int) "converted size" 2 (I.size_bytes t);
  Alcotest.check_raises "refuses unconvertible"
    (Invalid_argument "Instr.with_encoding: not Thumb-convertible")
    (fun () -> ignore (I.with_encoding I.Thumb16 (mk ~cond:I.Ne Op.Alu)))

let test_force_thumb () =
  let predicated = mk ~cond:I.Ne ~dst:(Reg.r 2) Op.Alu in
  let forced = I.force_thumb predicated in
  Alcotest.(check int) "forced to 2 bytes" 2 (I.size_bytes forced)

let test_cdp () =
  let c = I.cdp ~uid:9 ~following:5 in
  Alcotest.(check int) "cdp occupies 16 bits" 2 (I.size_bytes c);
  Alcotest.(check int) "count recorded" 5 (I.cdp_count c);
  Alcotest.check_raises "max 9"
    (Invalid_argument "Instr.cdp: a single CDP announces 1..9 instructions")
    (fun () -> ignore (I.cdp ~uid:1 ~following:10));
  Alcotest.check_raises "min 1"
    (Invalid_argument "Instr.cdp: a single CDP announces 1..9 instructions")
    (fun () -> ignore (I.cdp ~uid:1 ~following:0));
  (* [make]'s count shares the packed word: the field holds
     [-2^48, 2^48). *)
  let bound = 1 lsl 48 in
  List.iter
    (fun n ->
      Alcotest.(check int) "make's count read back" n
        (I.cdp_count (I.make ~uid:1 ~opcode:Op.Nop ~cdp_count:n ())))
    [ bound - 1; -bound ];
  Alcotest.check_raises "beyond the field"
    (Invalid_argument "Instr: cdp_count out of range") (fun () ->
      ignore (I.make ~uid:1 ~opcode:Op.Nop ~cdp_count:bound ()))

let test_regs_read_written () =
  let store = mk ~dst:(Reg.r 1) ~srcs:[ Reg.r 2 ] Op.Store in
  Alcotest.(check int) "store reads data+addr" 2
    (List.length (I.regs_read store));
  Alcotest.(check int) "store writes nothing" 0
    (List.length (I.regs_written store));
  let alu = mk ~dst:(Reg.r 1) ~srcs:[ Reg.r 2 ] Op.Alu in
  Alcotest.(check int) "alu writes dst" 1 (List.length (I.regs_written alu))

let test_structural_key () =
  let a = mk ~dst:(Reg.r 1) ~srcs:[ Reg.r 2 ] Op.Alu in
  let b = I.with_uid 999 a in
  Alcotest.(check string) "key ignores uid" (I.structural_key a)
    (I.structural_key b);
  let c = mk ~dst:(Reg.r 3) ~srcs:[ Reg.r 2 ] Op.Alu in
  Alcotest.(check bool) "key sees operands" false
    (I.structural_key a = I.structural_key c)

(* ------------------------- encode / decode ------------------------ *)

module E = Isa.Encode
module D = Isa.Decode

let ok_or_fail label = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" label msg

let test_encode_formats () =
  let i = mk ~dst:(Reg.r 2) ~srcs:[ Reg.r 3; Reg.r 4 ] Op.Alu in
  let h = ok_or_fail "encode16" (E.encode16 i) in
  Alcotest.(check bool) "halfword in range" true (h >= 0 && h <= 0xFFFF);
  let w = ok_or_fail "encode32" (E.encode32 i) in
  Alcotest.(check bool) "word in range" true (w >= 0 && w <= 0xFFFFFFFF);
  (* ARM32 predication is encodable; Thumb16 is not. *)
  let p = mk ~dst:(Reg.r 2) ~cond:I.Ne Op.Alu in
  Alcotest.(check bool) "predicated 32-bit ok" true
    (Result.is_ok (E.encode32 p));
  Alcotest.(check bool) "predicated 16-bit rejected" true
    (Result.is_error (E.encode16 p));
  (* The rejection reasons name the violated constraint. *)
  (match E.encode16 (mk ~dst:(Reg.r 12) Op.Alu) with
  | Error msg ->
    Alcotest.(check bool) "names the operand range" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "r12 must not encode in 16 bits");
  Alcotest.(check bool) "3 sources rejected in 16-bit" true
    (Result.is_error
       (E.encode16 (mk ~srcs:[ Reg.r 1; Reg.r 2; Reg.r 3 ] Op.Alu)))

let test_encode_bytes_length () =
  let arm = mk ~dst:(Reg.r 2) Op.Alu in
  let b = ok_or_fail "encode arm32" (E.encode arm) in
  Alcotest.(check int) "arm32 wire length" (I.size_bytes arm)
    (String.length b);
  let thumb = I.with_encoding I.Thumb16 arm in
  let b16 = ok_or_fail "encode thumb16" (E.encode thumb) in
  Alcotest.(check int) "thumb16 wire length" (I.size_bytes thumb)
    (String.length b16);
  (* force_thumb creates hypothetical re-encodings: the tag claims a
     width but no real encoder can honour it. *)
  let forced = I.force_thumb (mk ~cond:I.Ne ~dst:(Reg.r 2) Op.Alu) in
  Alcotest.(check int) "forced keeps claimed width" 2 (I.size_bytes forced);
  Alcotest.(check bool) "forced has no wire bytes" true
    (Result.is_error (E.encode forced))

let test_cdp_roundtrip () =
  let c = I.cdp ~uid:3 ~following:7 in
  let h = ok_or_fail "encode cdp" (E.encode16 c) in
  let d = ok_or_fail "decode cdp" (D.decode16 h) in
  Alcotest.(check bool) "cdp opcode" true (d.D.d_opcode = Op.Cdp_switch);
  Alcotest.(check int) "cdp count survives" 7 d.D.d_cdp_count;
  (* Counts outside 1..9 have no encoding: low nibble 9..15 rejects. *)
  Alcotest.(check bool) "count-10 halfword rejected" true
    (Result.is_error (D.decode16 0xF009))

let test_lut_totality () =
  (match D.check_total () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "check_total: %s" msg);
  Alcotest.(check int) "256 entries" 256 (Array.length D.thumb_lut);
  (* Exhaustive sweep: every halfword either decodes or returns a
     reasoned error — never an exception, never an empty reason. *)
  for h = 0 to 0xFFFF do
    match D.decode16 h with
    | Ok _ -> ()
    | Error msg ->
      if String.length msg = 0 then
        Alcotest.failf "halfword %04x: empty rejection reason" h
  done

(* qcheck: instruction generator over the legal space *)
let arbitrary_instr =
  let open QCheck.Gen in
  let gen =
    let* opcode =
      oneofl [ Op.Alu; Op.Alu_shift; Op.Mul; Op.Load; Op.Store; Op.Fp_add ]
    in
    let* dst = int_range 0 12 in
    let* src = int_range 0 12 in
    let* pred = bool in
    let mem =
      if Op.is_memory opcode then
        Some { I.region = 0; stride = 8; working_set = 128; randomness = 0.0 }
      else None
    in
    return
      (I.make ~uid:0 ~opcode ~dst:(Reg.r dst) ~srcs:[ Reg.r src ]
         ~cond:(if pred then I.Ne else I.Always)
         ?mem ())
  in
  QCheck.make gen

let prop_convertible_iff =
  QCheck.Test.make ~name:"thumb_convertible matches the rule" ~count:500
    arbitrary_instr (fun i ->
      let expected =
        (not (I.is_predicated i))
        && Op.thumb_expressible (I.opcode i)
        && List.for_all Reg.thumb_addressable
             (i.srcs @ Option.to_list (I.dst i))
      in
      I.thumb_convertible i = expected)

let prop_roundtrip_encoding =
  QCheck.Test.make ~name:"convertible instrs roundtrip encodings" ~count:500
    arbitrary_instr (fun i ->
      QCheck.assume (I.thumb_convertible i);
      let t = I.with_encoding I.Thumb16 i in
      let back = I.with_encoding I.Arm32 t in
      I.size_bytes t = 2 && I.size_bytes back = 4
      && I.structural_key back = I.structural_key i)

(* [make] shares operand values.  Its readers return, by [=], the
   fields it was given; two calls with equal operands read back the
   same [Some r], and the same source list when it has at most two
   registers. *)
let prop_make_shares_operands =
  let gen =
    let open QCheck.Gen in
    let* opcode = oneofl Op.all in
    let* dst = opt (int_range 0 15) in
    let* nsrcs = int_range 0 3 in
    let* srcs = list_repeat nsrcs (int_range 0 15) in
    let* cond = oneofl [ I.Always; I.Eq; I.Ne; I.Ge; I.Lt; I.Gt; I.Le ] in
    return (opcode, dst, srcs, cond)
  in
  let print (opcode, dst, srcs, _) =
    Printf.sprintf "%s dst %s srcs [%s]" (Op.to_string opcode)
      (match dst with None -> "-" | Some d -> string_of_int d)
      (String.concat "; " (List.map string_of_int srcs))
  in
  QCheck.Test.make ~name:"make shares equal operands" ~count:1000
    (QCheck.make ~print gen) (fun (opcode, dst, srcs, cond) ->
      let mem =
        if Op.is_memory opcode then
          Some { I.region = 1; stride = 4; working_set = 64; randomness = 0.5 }
        else None
      in
      let make () =
        I.make ~uid:3 ~opcode ?dst:(Option.map Reg.r dst)
          ~srcs:(List.map Reg.r srcs) ~cond ?mem ()
      in
      let a = make () and b = make () in
      a.I.uid = 3
      && I.opcode a = opcode
      && I.dst a = Option.map Reg.r dst
      && a.srcs = List.map Reg.r srcs
      && I.cond a = cond
      && I.encoding a = I.Arm32
      && a.mem = mem && a.chain = None
      && I.cdp_count a = 0
      && I.dst a == I.dst b
      && (List.length srcs > 2 || a.srcs == b.srcs))

(* The packed word: for every opcode, condition and encoding [make]
   accepts, with the drawn destination (absent or any register), 0-3
   sources, memory signature, chain and uid, the readers return what was
   passed; each writer changes only its own field; and equal inputs,
   whichever writers produced them, give [=] records.  [cdp] covers
   the counts 1-9; [make]'s is 0. *)
let prop_packed_word_round_trips =
  let gen =
    let open QCheck.Gen in
    let* uid = int_range 0 1_000_000 in
    let* dst = opt (int_range 0 15) in
    let* nsrcs = int_range 0 3 in
    let* srcs = list_repeat nsrcs (int_range 0 15) in
    let* chain = opt (triple (int_range 0 99) (int_range 0 8) (int_range 1 9)) in
    let* following = int_range 1 9 in
    return (uid, dst, srcs, chain, following)
  in
  let print (uid, dst, srcs, _, _) =
    Printf.sprintf "uid %d dst %s srcs [%s]" uid
      (match dst with None -> "-" | Some d -> string_of_int d)
      (String.concat "; " (List.map string_of_int srcs))
  in
  let fields (i : I.t) =
    ( i.uid,
      (I.opcode i, I.cond i, I.encoding i, I.dst i, I.cdp_count i),
      (i.srcs, i.mem, i.chain) )
  in
  QCheck.Test.make ~name:"packed word round-trips every field" ~count:200
    (QCheck.make ~print gen) (fun (uid, dst, srcs, chain, following) ->
      let dst = Option.map Reg.r dst and srcs = List.map Reg.r srcs in
      let chain =
        Option.map (fun (chain_id, pos, len) -> { I.chain_id; pos; len }) chain
      in
      let other_chain = Some { I.chain_id = 7; pos = 0; len = 2 } in
      let conds = [ I.Always; I.Eq; I.Ne; I.Gt; I.Lt; I.Ge; I.Le ] in
      let only_encoding e i j =
        let u, (o, c, _, d, n), rest = fields i in
        fields j = (u, (o, c, e, d, n), rest)
      in
      let check opcode cond encoding =
        let mem =
          if Op.is_memory opcode then
            Some
              { I.region = uid mod 5; stride = 4; working_set = 64;
                randomness = 0.25 }
          else None
        in
        let make encoding =
          I.make ~uid ~opcode ?dst ~srcs ~cond ~encoding ?mem ?chain ()
        in
        match make encoding with
        | exception Invalid_argument _ ->
          (* only a Thumb16 claim the 16-bit format cannot hold *)
          encoding = I.Thumb16 && opcode <> Op.Cdp_switch
          && not (I.thumb_convertible (make I.Arm32))
        | i ->
          fields i
          = (uid, (opcode, cond, encoding, dst, 0), (srcs, mem, chain))
          && i = make encoding
          && only_encoding I.Thumb16 i (I.force_thumb i)
          && only_encoding I.Fused i (I.fuse i)
          && only_encoding I.Arm32 i (I.with_encoding I.Arm32 i)
          && I.with_encoding encoding i = i
          && (encoding <> I.Arm32 || I.force_thumb i = I.force_thumb (make I.Arm32))
          && (let j = I.with_uid (uid + 1) i in
              let _, f, rest = fields i in
              fields j = (uid + 1, f, rest))
          && (let j = I.with_chain other_chain i in
              let u, f, (s, m, _) = fields i in
              fields j = (u, f, (s, m, other_chain)))
          && (encoding <> I.Arm32 || opcode = Op.Cdp_switch
              || (not (I.thumb_convertible i))
              || I.with_encoding I.Thumb16 i = make I.Thumb16)
      in
      List.for_all
        (fun opcode ->
          List.for_all
            (fun cond ->
              List.for_all (check opcode cond) [ I.Arm32; I.Thumb16; I.Fused ])
            conds)
        Op.all
      &&
      let c = I.cdp ~uid ~following in
      fields c
      = ( uid,
          (Op.Cdp_switch, I.Always, I.Thumb16, None, following),
          ([], None, None) )
      && c = I.cdp ~uid ~following)

(* A wider generator for the wire formats: full register range (so
   operand-range rejects are exercised), 0-3 sources, every condition
   code. *)
let arbitrary_wire_instr =
  let open QCheck.Gen in
  let gen =
    let* opcode =
      oneofl
        [ Op.Alu; Op.Alu_shift; Op.Mul; Op.Load; Op.Store; Op.Fp_add;
          Op.Fp_mul ]
    in
    let* dst = int_range 0 15 in
    let* nsrcs = int_range 0 3 in
    let* srcs = list_repeat nsrcs (int_range 0 15) in
    let* cond = oneofl [ I.Always; I.Eq; I.Ne; I.Ge; I.Lt; I.Gt; I.Le ] in
    let mem =
      if Op.is_memory opcode then
        Some { I.region = 0; stride = 8; working_set = 128; randomness = 0.0 }
      else None
    in
    return
      (I.make ~uid:0 ~opcode ~dst:(Reg.r dst) ~srcs:(List.map Reg.r srcs)
         ~cond ?mem ())
  in
  QCheck.make gen

let prop_decode16_inverts_encode16 =
  QCheck.Test.make ~name:"decode16 inverts encode16" ~count:1000
    arbitrary_wire_instr (fun i ->
      match E.encode16 i with
      | Error _ -> QCheck.assume_fail ()
      | Ok h -> (
        match D.decode16 h with
        | Error msg ->
          QCheck.Test.fail_reportf "encoded %04x does not decode: %s" h msg
        | Ok d ->
          d.D.d_opcode = I.opcode i && d.D.d_cond = I.Always
          && d.D.d_dst = I.dst i && d.D.d_srcs = i.srcs
          && d.D.d_cdp_count = 0))

let prop_decode32_inverts_encode32 =
  QCheck.Test.make ~name:"decode32 inverts encode32" ~count:1000
    arbitrary_wire_instr (fun i ->
      match E.encode32 i with
      | Error msg -> QCheck.Test.fail_reportf "32-bit encode failed: %s" msg
      | Ok w -> (
        match D.decode32 w with
        | Error msg ->
          QCheck.Test.fail_reportf "encoded %08x does not decode: %s" w msg
        | Ok d ->
          d.D.d_opcode = I.opcode i && d.D.d_cond = I.cond i
          && d.D.d_dst = I.dst i && d.D.d_srcs = i.srcs))

let prop_decode_bytes_inverts_encode =
  QCheck.Test.make ~name:"decode_bytes inverts encode" ~count:1000
    arbitrary_wire_instr (fun i ->
      match E.encode i with
      | Error _ -> QCheck.assume_fail ()
      | Ok bytes -> (
        String.length bytes = I.size_bytes i
        &&
        match D.decode_bytes bytes with
        | Error _ -> false
        | Ok d -> d.D.d_opcode = I.opcode i && d.D.d_dst = I.dst i))

let prop_encoder_is_the_convertibility_predicate =
  QCheck.Test.make
    ~name:"Encode.thumb_convertible agrees with the structural predicate"
    ~count:1000 arbitrary_wire_instr (fun i ->
      E.thumb_convertible i = I.thumb_convertible i
      && I.thumb_convertible i = Result.is_ok (E.encode16 i))

let prop_nonconvertible_rejected =
  QCheck.Test.make ~name:"non-convertible instrs fail the 16-bit encoder"
    ~count:1000 arbitrary_wire_instr (fun i ->
      QCheck.assume (not (I.thumb_convertible i));
      match E.encode16 i with
      | Error msg -> String.length msg > 0
      | Ok _ -> false)

(* The compiler scans every instruction of a program for
   convertibility on each OPP16 or Compress compile, so both predicates
   must be allocation-free: no result boxes and no message text, which
   [encode16] builds only on its error path.  As in test_store's
   window-loop test, one scan and four scans of the same instructions
   are measured; their difference is the per-instruction cost.  The
   instructions cover every reject (high registers, predication, three
   sources) and CDP markers. *)
let test_convertibility_scan_allocation_free () =
  let instrs =
    Array.append
      (Array.of_list
         (QCheck.Gen.generate ~rand:(Random.State.make [| 3 |]) ~n:4096
            (QCheck.gen arbitrary_wire_instr)))
      (Array.init 9 (fun k -> I.cdp ~uid:k ~following:(k + 1)))
  in
  let scan () =
    Array.fold_left
      (fun acc i ->
        if E.thumb_convertible i then acc + 1
        else if I.thumb_convertible i then acc + 2
        else acc)
      0 instrs
  in
  let measure times =
    (* A major cycle ending inside the window would add its own words. *)
    Gc.full_major ();
    let g0 = Gc.minor_words () in
    for _ = 1 to times do
      ignore (Sys.opaque_identity (scan ()))
    done;
    Gc.minor_words () -. g0
  in
  ignore (measure 1);
  let d1 = measure 1 in
  let d4 = measure 4 in
  let per_instr = (d4 -. d1) /. float_of_int (3 * Array.length instrs) in
  if per_instr >= 0.01 then
    Alcotest.failf
      "convertibility scan allocates %.3f minor words per instruction \
       (1x=%.0f 4x=%.0f)"
      per_instr d1 d4

let () =
  Alcotest.run "isa"
    [
      ( "reg",
        [
          Alcotest.test_case "bounds" `Quick test_reg_bounds;
          Alcotest.test_case "thumb addressable" `Quick test_thumb_addressable;
        ] );
      ( "opcode",
        [
          Alcotest.test_case "latencies" `Quick test_latencies;
          Alcotest.test_case "classes" `Quick test_opcode_classes;
          Alcotest.test_case "index map" `Quick test_opcode_index;
        ] );
      ( "instr",
        [
          Alcotest.test_case "sizes" `Quick test_sizes;
          Alcotest.test_case "thumb convertibility" `Quick test_thumb_convertibility;
          Alcotest.test_case "make rejects bad thumb" `Quick test_make_rejects_bad_thumb;
          Alcotest.test_case "make rejects mem on alu" `Quick test_make_rejects_mem_on_alu;
          Alcotest.test_case "with_encoding" `Quick test_with_encoding;
          Alcotest.test_case "force_thumb" `Quick test_force_thumb;
          Alcotest.test_case "cdp" `Quick test_cdp;
          Alcotest.test_case "regs read/written" `Quick test_regs_read_written;
          Alcotest.test_case "structural key" `Quick test_structural_key;
        ] );
      ( "encode/decode",
        [
          Alcotest.test_case "wire formats" `Quick test_encode_formats;
          Alcotest.test_case "wire length = size_bytes" `Quick
            test_encode_bytes_length;
          Alcotest.test_case "cdp marker roundtrip" `Quick test_cdp_roundtrip;
          Alcotest.test_case "LUT totality (65536 halfwords)" `Quick
            test_lut_totality;
          Alcotest.test_case "convertibility scan allocation-free" `Quick
            test_convertibility_scan_allocation_free;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_convertible_iff; prop_roundtrip_encoding;
            prop_decode16_inverts_encode16; prop_decode32_inverts_encode32;
            prop_decode_bytes_inverts_encode;
            prop_encoder_is_the_convertibility_predicate;
            prop_nonconvertible_rejected; prop_make_shares_operands;
            prop_packed_word_round_trips;
          ] );
    ]
