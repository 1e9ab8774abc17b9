(* Golden-model differential tests: the oracle interpreter, the trace
   expander, the walk sampler, the cycle simulator (with runtime
   invariants armed) and the compiler passes must all agree — on every
   seed application and on a fixed-seed fuzzed corpus, across machine
   configurations. *)

module D = Oracle.Differential
module F = Workload.Fuzz

let check = Alcotest.(check bool)

let ok_or_fail label = function
  | Ok n -> n
  | Error msg -> Alcotest.failf "%s: %s" label msg

(* The corpus `critics_cli check` runs, in two parts.  Every seed
   application, full differential: baseline across the whole config
   sweep, every transform variant across the cut-down sweep. *)
let test_corpus () =
  Seq.iter
    (fun (name, result) ->
      let t = ok_or_fail name result in
      check (name ^ ": compared some retirements") true (t.D.compared > 0))
    (D.corpus ~cases:0 ~seed:0)

(* 500 fixed-seed fuzzed programs.  Every one runs baseline + every
   transform variant; the machine sweep crosses three Config.t variants
   (Table I, the narrow 2-wide core, wrong-path fetch). *)
let test_fuzz_corpus () =
  let events =
    Seq.fold_left
      (fun n (label, result) -> n + (ok_or_fail label result).D.compared)
      0
      (Seq.take 500 (D.corpus ~cases:500 ~seed:0))
  in
  check "compared many retirements" true (events > 100_000)

(* QCheck property: every pass of every scheme stays both
   Verify-equivalent and oracle-equivalent on arbitrary programs. *)
let prop_transforms_preserve_semantics =
  QCheck.Test.make ~name:"transform pipeline preserves oracle semantics"
    ~count:60 F.arbitrary (fun spec ->
      let program = F.build spec in
      match D.check_pipelines (D.prepare ~instrs:300 program ~seed:11) with
      | Ok _ -> true
      | Error msg -> QCheck.Test.fail_reportf "%s" msg)

(* QCheck property: simulator agrees with the oracle on arbitrary
   programs under a seed-sampled machine configuration. *)
let prop_cpu_matches_oracle =
  QCheck.Test.make ~name:"cpu matches oracle on fuzzed programs" ~count:60
    QCheck.(pair F.arbitrary small_nat)
    (fun (spec, cseed) ->
      let program = F.build spec in
      let _, config = D.sample_config cseed in
      let p = D.prepare ~instrs:300 program ~seed:23 in
      match
        let ( let* ) = Result.bind in
        let* _ = D.check_trace p.D.program ~seed:p.D.seed ~path:p.D.path in
        D.check_cpu_trace ~config p.D.program ~seed:p.D.seed ~path:p.D.path
      with
      | Ok _ -> true
      | Error msg -> QCheck.Test.fail_reportf "%s" msg)

(* A deliberately injected hoist-style bug: swap the first two body
   instructions of every block — a reordering pass with no legality
   check.  The fuzzer must catch it and shrink the counterexample to a
   handful of instructions. *)
let buggy_hoist program =
  Prog.Program.map_blocks
    (fun b ->
      let body = Array.copy b.Prog.Block.body in
      if Array.length body >= 2 then begin
        let t = body.(0) in
        body.(0) <- body.(1);
        body.(1) <- t
      end;
      Prog.Block.with_body body b)
    program

let test_injected_bug_caught () =
  let cell =
    QCheck.Test.make_cell ~name:"buggy hoist is oracle-equivalent" ~count:300
      F.arbitrary (fun spec ->
        let program = F.build spec in
        let path = Prog.Walk.path_for_instrs program ~seed:3 ~instrs:200 in
        match
          D.check_transform_pair ~original:program
            ~transformed:(buggy_hoist program) ~seed:3 ~path
        with
        | Ok () -> true
        | Error _ -> false)
  in
  let res = QCheck.Test.check_cell ~rand:(Random.State.make [| 7 |]) cell in
  match QCheck.TestResult.get_state res with
  | QCheck.TestResult.Failed { instances = c :: _ } ->
    let spec = c.QCheck.TestResult.instance in
    let sz = F.size spec in
    if sz > 20 then
      Alcotest.failf
        "counterexample not shrunk enough: %d instructions\n%s" sz
        (F.to_string spec);
    check "shrinking made progress" true (c.QCheck.TestResult.shrink_steps > 0)
  | QCheck.TestResult.Success ->
    Alcotest.fail "injected hoist bug was not caught by the fuzzer"
  | _ -> Alcotest.fail "unexpected fuzzer outcome for the injected bug"

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The Verify diagnostics must name the offending block and uid. *)
let test_verify_diagnostics () =
  (* Search the fixed-seed genomes for one the buggy swap changes. *)
  let rec find seed =
    if seed > 50 then Alcotest.fail "no divergent genome in 50 seeds"
    else begin
      let program = F.build (F.spec_of_seed seed) in
      let broken = buggy_hoist program in
      if Transform.Verify.program_equivalent program broken then
        find (seed + 1)
      else (program, broken)
    end
  in
  let program, broken = find 0 in
  let diverged = ref false in
  Array.iteri
    (fun i b ->
      match
        Transform.Verify.block_divergence b (Prog.Program.blocks broken).(i)
      with
      | None -> ()
      | Some msg ->
        diverged := true;
        check "divergence names an instruction uid" true (contains ~sub:"uid" msg))
    (Prog.Program.blocks program);
  check "buggy hoist diverges somewhere" true !diverged;
  (* check_pass reports block id, func, index and the divergent uid. *)
  match Transform.Verify.check_pass (fun _ -> (broken, ())) program with
  | Ok _ -> Alcotest.fail "check_pass accepted the buggy pass"
  | Error msg ->
    check "check_pass names the block" true (contains ~sub:"block" msg);
    check "check_pass names the uid" true (contains ~sub:"uid" msg)

let () =
  Alcotest.run "oracle"
    [
      ( "corpus",
        [ Alcotest.test_case "all apps differential" `Quick test_corpus ] );
      ( "fuzz",
        [
          Alcotest.test_case "500 fixed-seed programs" `Quick test_fuzz_corpus;
          QCheck_alcotest.to_alcotest prop_transforms_preserve_semantics;
          QCheck_alcotest.to_alcotest prop_cpu_matches_oracle;
          Alcotest.test_case "injected hoist bug is caught and shrunk" `Quick
            test_injected_bug_caught;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "verify names block and uid" `Quick
            test_verify_diagnostics;
        ] );
    ]
