(* Per-pass differential tests for the nanopass transform pipeline:
   every intermediate program of every pass list must stay
   architecturally equivalent to the source (not just the final
   output), an injected per-pass bug must be caught, attributed to its
   pass by name, and shrunk; and the pass algebra must reproduce the
   monolithic seed semantics bit for bit. *)

module D = Oracle.Differential
module F = Workload.Fuzz
module S = Transform.Scheme
module Pa = Transform.Pass
module Pl = Transform.Pipeline
module R = Transform.Report
module I = Isa.Instr
module Op = Isa.Opcode
module B = Prog.Block
module P = Prog.Program
module Db = Profiler.Critic_db

let check = Alcotest.(check bool)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let digest_program p = Digest.to_hex (Digest.string (Marshal.to_string p []))

(* ------------------ monolithic reference pass ---------------------- *)

(* The original single-shot implementation of the CritIC pass, kept
   verbatim as the seed reference the pass-algebra tests compare the
   pipeline against.  Its one known defect is preserved on purpose: a
   site whose member/uid lists differ in length raises instead of
   counting as stale (the pipeline's Chain_select fixes this). *)
module Monolithic = struct
  open Transform
  open Pass
  open Report

  let cdp_span = 9

  (* Replace the hoisted segment [first, first+len) with its converted
     form: chain tags on every member, plus the chosen switch mechanism. *)
  let emit_segment ~options ~fresh_uid ~chain_id members =
    let len = List.length members in
    let tagged =
      List.mapi
        (fun pos m ->
          I.with_chain (Some { I.chain_id; pos; len }) m)
        members
    in
    match options.mode with
    | Hoist_only -> (tagged, 0, 0, 0)
    | Fused_macro ->
      (* One fetch for the whole chain: the head keeps its 32-bit slot
         (the hypothetical macro opcode word), the rest ride for free. *)
      (match tagged with
      | [] -> ([], 0, 0, 0)
      | head :: rest -> (head :: List.map I.fuse rest, len, 0, 0))
    | Branches ->
      let pre = I.make ~uid:(fresh_uid ()) ~opcode:Isa.Opcode.Branch () in
      let post =
        I.make ~uid:(fresh_uid ()) ~opcode:Isa.Opcode.Branch
          ~encoding:I.Thumb16 ()
      in
      let converted =
        List.map
          (fun m -> if options.ideal then I.force_thumb m else I.with_encoding I.Thumb16 m)
          tagged
      in
      ((pre :: converted) @ [ post ], len, 0, 2)
    | Cdp ->
      let rec chunks acc = function
        | [] -> List.rev acc
        | l ->
          let n = min cdp_span (List.length l) in
          chunks
            (List.filteri (fun i _ -> i < n) l :: acc)
            (List.filteri (fun i _ -> i >= n) l)
      in
      let groups = chunks [] tagged in
      let out =
        List.concat_map
          (fun group ->
            I.cdp ~uid:(fresh_uid ()) ~following:(List.length group)
            :: List.map
                 (fun m ->
                   if options.ideal then I.force_thumb m
                   else I.with_encoding I.Thumb16 m)
                 group)
          groups
      in
      (out, len, List.length groups, 0)

  let apply_monolithic ?(options = default_options) (db : Db.t) program =
    let db =
      if options.ideal then db else Db.restrict_length options.max_len db
    in
    let by_block : (int, Db.site list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (s : Db.site) ->
        if Db.site_length s >= 2 then
          Hashtbl.replace by_block s.block_id
            (s :: Option.value ~default:[] (Hashtbl.find_opt by_block s.block_id)))
      db.sites;
    let next_uid = ref (Prog.Program.max_uid program + 1) in
    let fresh_uid () =
      let u = !next_uid in
      incr next_uid;
      u
    in
    let chain_counter = ref 0 in
    let r = ref Report.zero in
    let bump f = r := f !r in
    let apply_site (block : Prog.Block.t) (site : Db.site) =
      bump (fun r -> { r with sites_considered = r.sites_considered + 1 });
      let body = block.Prog.Block.body in
      let fresh_site_ok =
        List.for_all2
          (fun idx uid -> idx < Array.length body && body.(idx).I.uid = uid)
          site.member_indices site.uids
      in
      if not fresh_site_ok then begin
        bump (fun r -> { r with rejected_stale = r.rejected_stale + 1 });
        block
      end
      else begin
        (* Longest legal prefix: any prefix of an IC is an IC, so when the
           full chain cannot be hoisted (e.g. a register is reused further
           down) we fall back to the longest hoistable prefix. *)
        let rec legal_prefix indices =
          match indices with
          | [] | [ _ ] -> None
          | _ when Hoist.legal block indices -> Some indices
          | _ ->
            legal_prefix
              (List.filteri (fun i _ -> i < List.length indices - 1) indices)
        in
        match legal_prefix site.member_indices with
        | None ->
          bump (fun r -> { r with rejected_legality = r.rejected_legality + 1 });
          block
        | Some member_indices ->
        let members = List.map (fun i -> body.(i)) member_indices in
        let needs_conversion =
          match options.mode with
          | Cdp | Branches -> true
          | Hoist_only | Fused_macro -> false
        in
        let convertible =
          options.ideal || List.for_all Isa.Instr.thumb_convertible members
        in
        if needs_conversion && not convertible then begin
          (* All-or-nothing: the whole sequence stays untouched. *)
          bump (fun r ->
              { r with rejected_convertibility = r.rejected_convertibility + 1 });
          block
        end
        else begin
          let hoisted = Hoist.apply block member_indices in
          let first = List.hd member_indices in
          let len = List.length member_indices in
          let chain_id = !chain_counter in
          incr chain_counter;
          let segment =
            Array.to_list (Array.sub hoisted.Prog.Block.body first len)
          in
          let converted, ninstr, ncdp, nbr =
            emit_segment ~options ~fresh_uid ~chain_id segment
          in
          let body' =
            Array.concat
              [
                Array.sub hoisted.Prog.Block.body 0 first;
                Array.of_list converted;
                Array.sub hoisted.Prog.Block.body (first + len)
                  (Array.length hoisted.Prog.Block.body - first - len);
              ]
          in
          bump (fun r ->
              {
                r with
                sites_applied = r.sites_applied + 1;
                instrs_hoisted = r.instrs_hoisted + len;
                instrs_converted = r.instrs_converted + ninstr;
                cdp_inserted = r.cdp_inserted + ncdp;
                switch_branches_inserted = r.switch_branches_inserted + nbr;
              });
          Prog.Block.with_body body' hoisted
        end
      end
    in
    let program' =
      Prog.Program.map_blocks
        (fun block ->
          match Hashtbl.find_opt by_block block.Prog.Block.id with
          | None -> block
          | Some sites ->
            (* Highest start index first: rewrites at higher indices never
               disturb the indices of sites below them (site index ranges
               are disjoint by construction). *)
            let sorted =
              List.sort
                (fun (a : Db.site) b -> compare b.start_index a.start_index)
                sites
            in
            List.fold_left apply_site block sorted)
        program
    in
    (program', !r)
end

(* ------------------- per-pass differential corpus ------------------ *)

(* Every seed application: every scheme's pass list (all switch modes,
   OPP16 and Compress, and the hybrids), the oracle armed after each
   individual pass. *)
let test_apps_per_pass () =
  List.iter
    (fun (profile : Workload.Profile.t) ->
      let program = Workload.Gen.program profile in
      let seed = profile.seed lxor 0x9A55 in
      let p = D.prepare ~instrs:1_500 program ~seed in
      match D.check_pipelines p with
      | Ok r ->
        Alcotest.(check int) (profile.name ^ ": pipelines checked") 10
          (List.length r.D.finals)
      | Error msg -> Alcotest.failf "%s: %s" profile.name msg)
    Workload.Apps.all

(* Rows with equal options apply their common prefix once: the table's
   31 passes take 24 applications.  Sharing changes nothing compiled:
   every final program is the one [Scheme.compile] builds alone. *)
let test_shared_prefixes () =
  let profile = List.hd Workload.Apps.all in
  let p =
    D.prepare ~instrs:1_500 (Workload.Gen.program profile)
      ~seed:(profile.seed lxor 0x9A55)
  in
  match D.check_pipelines p with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    Alcotest.(check int) "passes in the table" 31
      (List.fold_left (fun n s -> n + List.length (snd (S.pipeline s))) 0 S.all);
    Alcotest.(check int) "distinct pass applications" 24 r.D.applications;
    List.iter
      (fun (name, program) ->
        let s = Option.get (S.of_string name) in
        check (name ^ " = Scheme.compile") true
          (program = fst (S.compile s p.D.db p.D.program)))
      r.D.finals;
    check "critic transforms the program" false
      (List.assoc "critic" r.D.finals == p.D.program)

(* 300 fixed-seed fuzzed programs through the same per-pass harness,
   with a coverage floor so corpus drift cannot quietly turn the test
   into a no-op. *)
let test_fuzz_per_pass () =
  let exercised = ref 0 in
  for seed = 0 to 299 do
    let program = F.program_of_seed seed in
    let p = D.prepare ~instrs:400 program ~seed:(seed * 13 + 5) in
    (match D.check_pipelines p with
    | Ok _ -> ()
    | Error msg ->
      Alcotest.failf "fuzz seed %d: %s\n%s" seed msg
        (F.to_string (F.spec_of_seed seed)));
    let _, r = S.compile S.Critic p.D.db p.D.program in
    if r.R.sites_applied > 0 then incr exercised
  done;
  (* Small fuzzed programs rarely cross the criticality threshold:
     ~3% of this corpus gets an applied site (measured, stable across
     budgets) — the floor guards against the corpus drifting to zero. *)
  check
    (Printf.sprintf "corpus exercises the passes (%d/300 applied)" !exercised)
    true (!exercised >= 5)

(* ----------------------- injected per-pass bug --------------------- *)

(* A hoist that drops a dependence edge: after the legal hoist it swaps
   the first two members of every chain, reordering a producer past its
   consumer with no legality check.  Same name as the real pass — the
   checker must attribute the divergence to "hoist". *)
let buggy_hoist =
  let apply env program =
    let program', r = Transform.Hoist.pass.Pa.apply env program in
    let program'' =
      P.map_blocks
        (fun b ->
          match Transform.Chains.in_block b with
          | [] -> b
          | chains ->
            let body = Array.copy b.B.body in
            List.iter
              (fun (c : Transform.Chains.t) ->
                match c.Transform.Chains.positions with
                | p0 :: p1 :: _ when p1 = p0 + 1 ->
                  let t = body.(p0) in
                  body.(p0) <- body.(p1);
                  body.(p1) <- t
                | _ -> ())
              chains;
            B.with_body body b)
        program'
    in
    (program'', r)
  in
  { Pa.name = "hoist"; Pa.apply }

let buggy_passes =
  [
    Transform.Chain_select.pass;
    buggy_hoist;
    Transform.Narrow_convert.pass;
    Transform.Cdp_insert.pass;
  ]

let check_buggy spec =
  let program = F.build spec in
  let p = D.prepare ~instrs:300 program ~seed:11 in
  D.check_pipeline p ("buggy", Pa.env p.D.db, buggy_passes)

let test_injected_pass_bug () =
  let cell =
    QCheck.Test.make_cell ~name:"buggy hoist pass survives per-pass checks"
      ~count:300 F.arbitrary (fun spec ->
        match check_buggy spec with Ok _ -> true | Error _ -> false)
  in
  let res = QCheck.Test.check_cell ~rand:(Random.State.make [| 7 |]) cell in
  match QCheck.TestResult.get_state res with
  | QCheck.TestResult.Failed { instances = c :: _ } -> (
    let spec = c.QCheck.TestResult.instance in
    let sz = F.size spec in
    if sz > 20 then
      Alcotest.failf "counterexample not shrunk enough: %d instructions\n%s" sz
        (F.to_string spec);
    check "shrinking made progress" true (c.QCheck.TestResult.shrink_steps > 0);
    match check_buggy spec with
    | Error msg ->
      check
        (Printf.sprintf "divergence attributed to the hoist pass: %s" msg)
        true
        (contains ~sub:"buggy/hoist" msg)
    | Ok _ -> Alcotest.fail "shrunk instance no longer fails")
  | QCheck.TestResult.Success ->
    Alcotest.fail "injected hoist-pass bug was not caught"
  | _ -> Alcotest.fail "unexpected fuzzer outcome for the injected bug"

(* ---------------------------- pass algebra ------------------------- *)

(* Every switch mode: the pass list of the scheme that uses it, run
   under the options the monolithic reference is given.  Those are the
   scheme's own options except for "macro", which keeps max_len 5
   (Macro_ideal lifts the cap). *)
let mode_cases =
  let with_mode mode = { Pa.default_options with Pa.mode } in
  [
    ("cdp", S.Critic, Pa.default_options);
    ("branches", S.Critic_branches, with_mode Pa.Branches);
    ("hoist_only", S.Hoist, with_mode Pa.Hoist_only);
    ("macro", S.Macro_ideal, with_mode Pa.Fused_macro);
    ("ideal", S.Critic_ideal, Pa.ideal_options);
  ]

let apply ~options scheme db program =
  Pl.run (Pa.env ~options db) (snd (S.pipeline scheme)) program

(* The scheme table's pass lists reproduce the monolithic seed
   semantics — program and report — in every switch mode. *)
let prop_pipeline_equals_monolithic =
  QCheck.Test.make ~name:"scheme pass lists = monolithic semantics" ~count:60
    F.arbitrary (fun spec ->
      let program = F.build spec in
      let p = D.prepare ~instrs:300 program ~seed:17 in
      List.for_all
        (fun (label, scheme, options) ->
          let prog_a, rep_a = apply ~options scheme p.D.db p.D.program in
          let prog_b, rep_b = Monolithic.apply_monolithic ~options p.D.db p.D.program in
          if digest_program prog_a <> digest_program prog_b then
            QCheck.Test.fail_reportf "%s: programs differ" label
          else if rep_a <> rep_b then
            QCheck.Test.fail_reportf "%s: reports differ" label
          else true)
        mode_cases)

let prop_narrow_idempotent =
  QCheck.Test.make ~name:"narrow-convert is idempotent" ~count:60 F.arbitrary
    (fun spec ->
      let program = F.build spec in
      let p = D.prepare ~instrs:300 program ~seed:19 in
      let env = Pa.env p.D.db in
      let tagged, _ = Transform.Chain_select.pass.Pa.apply env p.D.program in
      let once, _ = Transform.Narrow_convert.pass.Pa.apply env tagged in
      let twice, _ = Transform.Narrow_convert.pass.Pa.apply env once in
      digest_program once = digest_program twice)

let prop_hoist_preserves_multiset =
  QCheck.Test.make ~name:"hoist preserves per-block instruction multiset"
    ~count:60 F.arbitrary (fun spec ->
      let program = F.build spec in
      let p = D.prepare ~instrs:300 program ~seed:29 in
      let env = Pa.env p.D.db in
      let tagged, _ = Transform.Chain_select.pass.Pa.apply env p.D.program in
      let hoisted, _ = Transform.Hoist.pass.Pa.apply env tagged in
      let sorted_body (b : B.t) = List.sort compare (Array.to_list b.B.body) in
      let a = P.blocks tagged and b = P.blocks hoisted in
      Array.length a = Array.length b
      && Array.for_all
           (fun i -> sorted_body a.(i) = sorted_body b.(i))
           (Array.init (Array.length a) Fun.id))

(* Per-pass reports sum to the composite report field for field, and
   the composite equals the monolithic one. *)
let prop_reports_sum =
  QCheck.Test.make ~name:"per-pass reports sum to composite report" ~count:60
    F.arbitrary (fun spec ->
      let program = F.build spec in
      let p = D.prepare ~instrs:300 program ~seed:31 in
      List.for_all
        (fun (label, scheme, options) ->
          let env = Pa.env ~options p.D.db in
          let _, per_pass =
            List.fold_left
              (fun (prog, acc) (pass : Pa.t) ->
                let prog', r = pass.Pa.apply env prog in
                (prog', r :: acc))
              (p.D.program, [])
              (snd (S.pipeline scheme))
          in
          let summed = List.fold_left R.add R.zero per_pass in
          let _, composite = apply ~options scheme p.D.db p.D.program in
          let _, mono = Monolithic.apply_monolithic ~options p.D.db p.D.program in
          List.for_all2
            (fun (fa, va) ((fb, vb), (fc, vc)) ->
              if va <> vb || va <> vc then
                QCheck.Test.fail_reportf
                  "%s: field %s: passes sum %d, composite %d, monolithic %d"
                  label fa va vb vc
              else (assert (fa = fb && fb = fc); true))
            (R.fields summed)
            (List.combine (R.fields composite) (R.fields mono)))
        mode_cases)

(* Narrow-before-hoist commutes: the reordered hybrid produces the same
   program as Critic's list. *)
let prop_reorder_commutes =
  QCheck.Test.make ~name:"narrow-before-hoist = Critic's pass list" ~count:60
    F.arbitrary (fun spec ->
      let program = F.build spec in
      let p = D.prepare ~instrs:300 program ~seed:37 in
      let run passes =
        fst (Pl.run (Pa.env p.D.db) passes p.D.program)
      in
      digest_program (run (snd (S.pipeline S.Critic)))
      = digest_program (run (snd (S.pipeline S.Critic_reorder))))

(* ---------------- rejection attribution unit tests ----------------- *)

let r = Isa.Reg.r

let mk uid ?dst ?(srcs = []) ?cond op = I.make ~uid ~opcode:op ?dst ~srcs ?cond ()

let block body = B.make ~id:0 ~func:0 ~body ~term:(B.Jump 0)

let program_of body = P.make ~entry:0 ~blocks:[ block body ]

let site ?(start = 0) ~indices ~uids () =
  {
    Db.block_id = 0;
    start_index = start;
    member_indices = indices;
    uids;
    key = "k";
    occurrences = 1;
    criticality = 10.0;
    convertible = true;
  }

let db_of sites =
  {
    Db.sites;
    total_work = 1;
    ic_lengths = Util.Dist.Histogram.create ();
    ic_spreads = Util.Dist.Histogram.create ();
    chain_gaps = Util.Dist.Histogram.create ();
  }

(* 0 -> 2 is an illegal hoist: member 2 reads r6, which the skipped
   instruction 1 writes. *)
let illegal_body () =
  [|
    mk 0 ~dst:(r 0) Op.Alu;
    mk 1 ~dst:(r 6) ~srcs:[ r 0 ] Op.Alu;
    mk 2 ~dst:(r 1) ~srcs:[ r 6 ] Op.Alu;
  |]

let test_rejection_first_failing_check () =
  let program = program_of (illegal_body ()) in
  (* Fresh but illegal: charged to legality. *)
  let _, rep =
    S.compile S.Critic
      (db_of [ site ~indices:[ 0; 2 ] ~uids:[ 0; 2 ] () ])
      program
  in
  Alcotest.(check int) "legality rejection" 1 rep.R.rejected_legality;
  Alcotest.(check int) "no stale rejection" 0 rep.R.rejected_stale;
  (* Stale AND illegal: re-validation fails first, so the site counts
     as stale only — never under both, never under legality. *)
  let _, rep =
    S.compile S.Critic
      (db_of [ site ~indices:[ 0; 2 ] ~uids:[ 7; 8 ] () ])
      program
  in
  Alcotest.(check int) "stale rejection" 1 rep.R.rejected_stale;
  Alcotest.(check int) "legality not double-counted" 0 rep.R.rejected_legality;
  Alcotest.(check int) "considered once" 1 rep.R.sites_considered

let test_length_mismatch_counts_stale () =
  let program = program_of (illegal_body ()) in
  (* More uids than member indices (site_length counts uids, so a
     uids-short site is filtered before consideration). *)
  let db = db_of [ site ~indices:[ 0; 2 ] ~uids:[ 0; 2; 4 ] () ] in
  (* The monolithic pass raised on a member/uid length mismatch — the
     silent-loss defect this refactor fixes. *)
  Alcotest.check_raises "monolithic raised"
    (Invalid_argument "List.for_all2") (fun () ->
      ignore (Monolithic.apply_monolithic db program));
  let _, rep = S.compile S.Critic db program in
  Alcotest.(check int) "pipeline counts it stale" 1 rep.R.rejected_stale;
  Alcotest.(check int) "considered" 1 rep.R.sites_considered;
  Alcotest.(check int) "nothing applied" 0 rep.R.sites_applied

let test_convertibility_rejection () =
  (* 0 -> 2 is legal but member 2 targets a high register: the
     all-or-nothing Thumb rule rejects the whole site in Cdp mode. *)
  let body =
    [|
      mk 0 ~dst:(r 5) Op.Alu;
      mk 1 ~dst:(r 4) Op.Alu;
      mk 2 ~dst:(r 12) ~srcs:[ r 5 ] Op.Alu;
    |]
  in
  let program = program_of body in
  let db = db_of [ site ~indices:[ 0; 2 ] ~uids:[ 0; 2 ] () ] in
  let _, rep = S.compile S.Critic db program in
  Alcotest.(check int) "convertibility rejection" 1
    rep.R.rejected_convertibility;
  Alcotest.(check int) "not legality" 0 rep.R.rejected_legality;
  (* Hoist-only mode never converts, so the same site applies. *)
  let _, rep = S.compile S.Hoist db program in
  Alcotest.(check int) "hoist-only applies it" 1 rep.R.sites_applied

let test_applied_site_reports () =
  (* A dependent chain 0 -> 2 -> 4 interleaved with leaves: applies
     under every mode, with mode-specific switch accounting. *)
  let body =
    [|
      mk 0 ~dst:(r 0) Op.Alu;
      mk 1 ~dst:(r 6) ~srcs:[ r 0 ] Op.Alu;
      mk 2 ~dst:(r 1) ~srcs:[ r 0 ] Op.Alu;
      mk 3 ~dst:(r 6) ~srcs:[ r 1 ] Op.Alu;
      mk 4 ~dst:(r 2) ~srcs:[ r 1 ] Op.Alu;
      mk 5 ~dst:(r 6) ~srcs:[ r 2 ] Op.Alu;
    |]
  in
  let program = program_of body in
  let db = db_of [ site ~indices:[ 0; 2; 4 ] ~uids:[ 0; 2; 4 ] () ] in
  let check_mode (label, scheme, options) ~cdp ~branches ~converted =
    let prog_a, rep = apply ~options scheme db program in
    let prog_b, rep_b = Monolithic.apply_monolithic ~options db program in
    Alcotest.(check int) (label ^ ": applied") 1 rep.R.sites_applied;
    Alcotest.(check int) (label ^ ": hoisted") 3 rep.R.instrs_hoisted;
    Alcotest.(check int) (label ^ ": converted") converted
      rep.R.instrs_converted;
    Alcotest.(check int) (label ^ ": cdp") cdp rep.R.cdp_inserted;
    Alcotest.(check int) (label ^ ": branches") branches
      rep.R.switch_branches_inserted;
    check (label ^ ": = monolithic program") true
      (digest_program prog_a = digest_program prog_b);
    check (label ^ ": = monolithic report") true (rep = rep_b)
  in
  let mode label = List.find (fun (l, _, _) -> l = label) mode_cases in
  check_mode (mode "cdp") ~cdp:1 ~branches:0 ~converted:3;
  check_mode (mode "branches") ~cdp:0 ~branches:2 ~converted:3;
  check_mode (mode "hoist_only") ~cdp:0 ~branches:0 ~converted:0;
  check_mode (mode "macro") ~cdp:0 ~branches:0 ~converted:3

let () =
  Alcotest.run "nanopass"
    [
      ( "per-pass differential",
        [
          Alcotest.test_case "all apps, all pipelines" `Quick
            test_apps_per_pass;
          Alcotest.test_case "300 fuzzed programs" `Quick test_fuzz_per_pass;
          Alcotest.test_case "shared prefixes applied once" `Quick
            test_shared_prefixes;
          Alcotest.test_case "injected pass bug caught, attributed, shrunk"
            `Quick test_injected_pass_bug;
        ] );
      ( "pass algebra",
        [
          QCheck_alcotest.to_alcotest prop_pipeline_equals_monolithic;
          QCheck_alcotest.to_alcotest prop_narrow_idempotent;
          QCheck_alcotest.to_alcotest prop_hoist_preserves_multiset;
          QCheck_alcotest.to_alcotest prop_reports_sum;
          QCheck_alcotest.to_alcotest prop_reorder_commutes;
        ] );
      ( "rejection attribution",
        [
          Alcotest.test_case "first failing check wins" `Quick
            test_rejection_first_failing_check;
          Alcotest.test_case "length mismatch counts stale" `Quick
            test_length_mismatch_counts_stale;
          Alcotest.test_case "convertibility attribution" `Quick
            test_convertibility_rejection;
          Alcotest.test_case "applied-site accounting" `Quick
            test_applied_site_reports;
        ] );
    ]
