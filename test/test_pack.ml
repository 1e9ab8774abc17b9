(* Binary trace packs: container framing, digest verification and
   mmap replay fidelity. *)

module Pack = Prog.Trace.Pack
module Stream = Prog.Trace.Stream

let app name = Option.get (Workload.Apps.find name)
let small_instrs = 2_000

let with_pack_file f =
  let path = Filename.temp_file "critics-pack" ".cpk" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let ok_or_fail label = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" label msg

(* Drain two cursors in lockstep, requiring structural equality event
   for event; returns the number compared. *)
let compare_streams label a b =
  let fin = Stream.end_marker in
  let n = ref 0 in
  let rec go () =
    let ea = Stream.next_ev a in
    let eb = Stream.next_ev b in
    if ea == fin && eb == fin then ()
    else if ea == fin || eb == fin then
      Alcotest.failf "%s: streams end at different lengths (%d compared)"
        label !n
    else begin
      if ea <> eb then
        Alcotest.failf
          "%s: event %d diverges (uid %d pc %d vs uid %d pc %d)" label !n
          ea.Prog.Trace.instr.uid ea.pc eb.Prog.Trace.instr.uid eb.pc;
      incr n;
      go ()
    end
  in
  go ();
  !n

(* ------------------------------------------------------------------ *)
(* Container: framing, digest, replay fidelity                        *)

let test_roundtrip_bit_identical () =
  List.iter
    (fun (app_name, scheme) ->
      let ctx = Critics.Run.prepare ~instrs:small_instrs (app app_name) in
      with_pack_file (fun path ->
          let n = Pack.record ~path (Critics.Run.stream ctx scheme) in
          Alcotest.(check int)
            (app_name ^ ": record count = event count (baseline only)")
            (if scheme = Critics.Scheme.Baseline then ctx.event_count else n)
            n;
          let pk = ok_or_fail "open_file" (Pack.open_file path) in
          Alcotest.(check int) "count framed" n (Pack.count pk);
          Alcotest.(check int) "length framed"
            (Pack.header_bytes + (n * Pack.record_bytes))
            (Pack.file_bytes pk);
          let program = Critics.Run.transformed ctx scheme in
          let compared =
            compare_streams
              (app_name ^ "/" ^ Critics.Scheme.name scheme)
              (Pack.cursor pk program)
              (Critics.Run.stream ctx scheme)
          in
          Alcotest.(check int) "every event compared" n compared))
    [
      ("Acrobat", Critics.Scheme.Baseline);
      ("Music", Critics.Scheme.Critic);
      ("lbm", Critics.Scheme.Opp16_critic);
    ]

let test_open_rejects_bad_files () =
  let write path bytes =
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc
  in
  with_pack_file (fun path ->
      (* Too short for a header. *)
      write path "CRTCPK01";
      Alcotest.(check bool) "short file rejected" true
        (Result.is_error (Pack.open_file path));
      (* Record a real pack to mutate. *)
      let ctx = Critics.Run.prepare ~instrs:small_instrs (app "Acrobat") in
      let n = Pack.record ~path (Critics.Run.stream ctx Critics.Scheme.Baseline) in
      Alcotest.(check bool) "recorded something" true (n > 0);
      let original = In_channel.with_open_bin path In_channel.input_all in
      (* Wrong magic. *)
      write path ("XXXXXXXX" ^ String.sub original 8 (String.length original - 8));
      Alcotest.(check bool) "bad magic rejected" true
        (Result.is_error (Pack.open_file path));
      (* Truncated payload: length framing must catch it before the
         digest is even consulted. *)
      write path (String.sub original 0 (String.length original - 7));
      Alcotest.(check bool) "truncation rejected" true
        (Result.is_error (Pack.open_file path));
      (* Flipped payload byte: digest verification must catch it. *)
      let corrupt = Bytes.of_string original in
      let pos = String.length original - 5 in
      Bytes.set corrupt pos
        (Char.chr (Char.code (Bytes.get corrupt pos) lxor 0xFF));
      write path (Bytes.to_string corrupt);
      Alcotest.(check bool) "payload corruption rejected" true
        (Result.is_error (Pack.open_file path));
      (* The pristine bytes still open. *)
      write path original;
      Alcotest.(check bool) "pristine bytes reopen" true
        (Result.is_ok (Pack.open_file path)))

let () =
  Alcotest.run "pack"
    [
      ( "container",
        [
          Alcotest.test_case "replay is bit-identical to the live walk"
            `Quick test_roundtrip_bit_identical;
          Alcotest.test_case "framing and digest reject bad files" `Quick
            test_open_rejects_bad_files;
        ] );
    ]
