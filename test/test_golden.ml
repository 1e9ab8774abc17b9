(* Golden statistics of the cycle simulator.

   Each entry is the MD5 of the marshalled [Pipeline.Stats.t] that the
   pre-streaming engine (commit 2344d12, which materialized the whole
   trace and allocated one slot per event) produced for an
   (app, scheme, machine-variant) triple at a 6000-instruction budget.
   The windowed streaming engine must reproduce every one bit for bit:
   these digests are the recorded-seed contract that O(window)
   recycling, the batch cursor and the scheme cache changed *nothing*
   observable.

   If an intentional semantic change to the simulator ever invalidates
   them, regenerate by running this suite with CRITICS_GOLDEN_PRINT=1:
   each table is printed as ready-to-paste OCaml tuples instead of
   asserted.

   One such regeneration has happened: the five lbm/perfect_bp+clp
   entries changed when the prefetch-fill victim bug was fixed (a
   critical-load prefetch fill that evicted a dirty L1d line used to
   drop the writeback the L2 should absorb; lbm under clp is the one
   recorded workload that actually evicts dirty lines through that
   path at the 6000-instruction budget).  All other entries — in
   particular every table_i row — are the original seed recordings,
   still reproduced bit for bit. *)

(* The digest marshals a projection tuple of the fields [Stats.t] had
   when the tables were recorded, in their declaration order.  Records
   and tuples share a heap representation (tag-0 block, fields in
   order), so the marshalled bytes — and hence every recorded hex
   digest — are identical to marshalling the seed-era record, while the
   fields appended since (fetch_bytes, fetch_groups: purely additive
   counters) stay outside the recorded contract. *)
let digest (st : Pipeline.Stats.t) =
  let projection =
    ( st.cycles,
      st.committed_total,
      st.committed_work,
      st.thumb_committed,
      st.cdp_markers,
      st.critical_count,
      st.fetch_idle_supply,
      st.fetch_idle_backpressure,
      st.stage_all,
      st.stage_critical,
      st.stage_chain,
      st.bpu,
      st.l1i,
      st.l1d,
      st.l2,
      st.dram,
      st.efetch_predictions,
      st.efetch_correct )
  in
  Digest.to_hex (Digest.string (Marshal.to_string projection []))

let golden =
  [
    ("Acrobat", "baseline", "table_i", "49933c833a1d353408309a48c812486c");
    ("Acrobat", "baseline", "2x_fd", "5969a765bfeb5e3692d2279406bd438b");
    ("Acrobat", "baseline", "4x_icache+backend_prio", "7a0501576323547b2d5105119df6d9f6");
    ("Acrobat", "baseline", "narrow2", "f3769926bd59edc3e27d3758ca8d2c25");
    ("Acrobat", "baseline", "free_cdp+efetch", "49933c833a1d353408309a48c812486c");
    ("Acrobat", "baseline", "perfect_bp+clp", "3339e007696a920f92b532513cb4233e");
    ("Acrobat", "baseline", "wrong_path", "c8dc03b26fbd62b132b3f3884b4b5763");
    ("Acrobat", "critic", "table_i", "6d1adc44993869918195f4e83735d757");
    ("Acrobat", "critic", "2x_fd", "72e191c5566d5c80e22bcfd0a0d14f11");
    ("Acrobat", "critic", "4x_icache+backend_prio", "50358f8b1e464f0b572c03406d036e12");
    ("Acrobat", "critic", "narrow2", "6686ab47f1e7af714da37626b6f911f4");
    ("Acrobat", "critic", "free_cdp+efetch", "73ebef736d732c5138b45e804386d698");
    ("Acrobat", "critic", "perfect_bp+clp", "39e7263c5ae95de7adbbdfc0215c46ba");
    ("Acrobat", "critic", "wrong_path", "4f91cae06ca6938ca2b007ed2ee27561");
    ("Acrobat", "opp16+critic", "table_i", "f921ac8d12586ef03bac495e85d5e9e0");
    ("Acrobat", "opp16+critic", "2x_fd", "e10706d15f0006d9e8be94831a14eed9");
    ("Acrobat", "opp16+critic", "4x_icache+backend_prio", "88a122081b65b96228ac227d5a8adb5c");
    ("Acrobat", "opp16+critic", "narrow2", "4ddc01fc68e6939fe6e9a0de0e4c40ae");
    ("Acrobat", "opp16+critic", "free_cdp+efetch", "e2f88e0c4c0113689fafc242a49e9050");
    ("Acrobat", "opp16+critic", "perfect_bp+clp", "53768a29e13aa462c646adc3e1a641b6");
    ("Acrobat", "opp16+critic", "wrong_path", "90b18e0ab2c004af2e9dc4b9627dc73a");
    ("Music", "baseline", "table_i", "d33787c6c35b0c938a0b1285b736eb7a");
    ("Music", "baseline", "2x_fd", "d4e1f6ab546dc3f75ddae9f988590667");
    ("Music", "baseline", "4x_icache+backend_prio", "d3698ab9ff04cf65dd444f44e42ca072");
    ("Music", "baseline", "narrow2", "0c004886fde63d8694842de6f5f4717f");
    ("Music", "baseline", "free_cdp+efetch", "d33787c6c35b0c938a0b1285b736eb7a");
    ("Music", "baseline", "perfect_bp+clp", "310d7eed0c24cc2c8923638fb4e8fb0e");
    ("Music", "baseline", "wrong_path", "2e39033fa8044d6960b2f823b62c3d52");
    ("Music", "critic", "table_i", "3f78d843fbc94107a8384f5c7512f0f0");
    ("Music", "critic", "2x_fd", "e160b7def8079495b067e63a541e4d4e");
    ("Music", "critic", "4x_icache+backend_prio", "4b97760480f24965a42f1fff9c45d43d");
    ("Music", "critic", "narrow2", "e3601cc46a92da4bd282e187fc306240");
    ("Music", "critic", "free_cdp+efetch", "a5f4a86fdbda20e41165e3a73133d554");
    ("Music", "critic", "perfect_bp+clp", "34be58f0244f26bc414dbd60acdb1785");
    ("Music", "critic", "wrong_path", "47c6edb04370db19221f5781f1f5a751");
    ("Music", "opp16+critic", "table_i", "e701473e3c7f07299ffcc5e7e08e0859");
    ("Music", "opp16+critic", "2x_fd", "d2581117acbd3f3bb62bf035c8ddba3b");
    ("Music", "opp16+critic", "4x_icache+backend_prio", "aefa76587aa7f9ef22db8917f08741c2");
    ("Music", "opp16+critic", "narrow2", "eaee765b45785e1cc183aa68ff3220f6");
    ("Music", "opp16+critic", "free_cdp+efetch", "f544f32df93a88c805a32be16acc86e1");
    ("Music", "opp16+critic", "perfect_bp+clp", "e56df2cb4c1af622e446aee1b6bcedd0");
    ("Music", "opp16+critic", "wrong_path", "5938dd04dad377effb00e0dd1eca4dfa");
    ("lbm", "baseline", "table_i", "3b0c9772abb73d90dc13d62ab7b1403a");
    ("lbm", "baseline", "2x_fd", "2c8d586953bcca239af015ba7c0c9780");
    ("lbm", "baseline", "4x_icache+backend_prio", "01cf52e3c11f42b01d51b7cbd2f928c4");
    ("lbm", "baseline", "narrow2", "0a1ccda3de5229c4de3b3218ecb93bbc");
    ("lbm", "baseline", "free_cdp+efetch", "3b0c9772abb73d90dc13d62ab7b1403a");
    ("lbm", "baseline", "perfect_bp+clp", "b0a4d522a5139e5cbbd4f9e0bbaac11c");
    ("lbm", "baseline", "wrong_path", "2b7dc19c6aa36fb2b672195d18ba646b");
    ("lbm", "critic", "table_i", "d4f014cb4947667cbd9dd9147b43d05f");
    ("lbm", "critic", "2x_fd", "85e41505df37114134c70a75a815a293");
    ("lbm", "critic", "4x_icache+backend_prio", "819898737b1be65caed324a0740de10f");
    ("lbm", "critic", "narrow2", "59bae7fc1e40ea5ecffec430aff6ab15");
    ("lbm", "critic", "free_cdp+efetch", "569177a212c7aa3ae5e68dd51b93258c");
    ("lbm", "critic", "perfect_bp+clp", "74ef7ab2c44e017b9bc00a92292404b4");
    ("lbm", "critic", "wrong_path", "0ee4b4e4741560c3ab454babbe6a0dea");
    ("lbm", "opp16+critic", "table_i", "d0af99f466120c688e3d265745723034");
    ("lbm", "opp16+critic", "2x_fd", "46d71a0e9c1b326b0c07ad99c4bb6738");
    ("lbm", "opp16+critic", "4x_icache+backend_prio", "bdc6c0ec849f50d77cd5b1406ff83ff9");
    ("lbm", "opp16+critic", "narrow2", "32f000fbab38d2748f5084cd6e19ef6a");
    ("lbm", "opp16+critic", "free_cdp+efetch", "6de579cf0917caa86e64338db70fee80");
    ("lbm", "opp16+critic", "perfect_bp+clp", "e938d564991bcd8ff587fa55c0b55fbd");
    ("lbm", "opp16+critic", "wrong_path", "04f9f00b58f5794d5a8ade5098fc1562");
  ]

let schemes =
  [
    Critics.Scheme.Baseline; Critics.Scheme.Critic; Critics.Scheme.Opp16_critic;
  ]

(* The hybrid pass lists the nanopass refactor added (PR 7), recorded
   the day they landed with the same loop at the same 6000-instruction
   budget.  [critic.reorder] digests are identical to [critic]'s above
   — narrow-before-hoist produces the same program (the passes
   commute), and the equality is asserted structurally below, not just
   recorded. *)
let golden_hybrid =
  [
    ("Acrobat", "narrow.only", "table_i", "655097d94aacc7fd42bfb90c0787e5f8");
    ("Acrobat", "narrow.only", "2x_fd", "abf8e17d744ed072d6eb55677f1d6d0a");
    ("Acrobat", "narrow.only", "4x_icache+backend_prio", "e21a8ea8dcd14f876164d0a8ae1dbba1");
    ("Acrobat", "narrow.only", "narrow2", "bebe25b50e928e614013f1a570f9643f");
    ("Acrobat", "narrow.only", "free_cdp+efetch", "f5fcc6566e93e69354644d4f37ba56ce");
    ("Acrobat", "narrow.only", "perfect_bp+clp", "ac0f5c87dc260c09c15757c843b340f1");
    ("Acrobat", "narrow.only", "wrong_path", "318d4afb107102e4f84d1b0d8b476010");
    ("Acrobat", "critic.reorder", "table_i", "6d1adc44993869918195f4e83735d757");
    ("Acrobat", "critic.reorder", "2x_fd", "72e191c5566d5c80e22bcfd0a0d14f11");
    ("Acrobat", "critic.reorder", "4x_icache+backend_prio", "50358f8b1e464f0b572c03406d036e12");
    ("Acrobat", "critic.reorder", "narrow2", "6686ab47f1e7af714da37626b6f911f4");
    ("Acrobat", "critic.reorder", "free_cdp+efetch", "73ebef736d732c5138b45e804386d698");
    ("Acrobat", "critic.reorder", "perfect_bp+clp", "39e7263c5ae95de7adbbdfc0215c46ba");
    ("Acrobat", "critic.reorder", "wrong_path", "4f91cae06ca6938ca2b007ed2ee27561");
    ("Music", "narrow.only", "table_i", "59f2eec26eeb8504512d3db5abba66eb");
    ("Music", "narrow.only", "2x_fd", "1366d33e6e4b5ef151dc6ba05384aa2c");
    ("Music", "narrow.only", "4x_icache+backend_prio", "7b965e18b1c8dcdaa3e5e79c0b54d565");
    ("Music", "narrow.only", "narrow2", "8dfdb47e24969edbeff44ef1d7d46423");
    ("Music", "narrow.only", "free_cdp+efetch", "77f4ab88552d221981071511955c1740");
    ("Music", "narrow.only", "perfect_bp+clp", "dc5eba380fb1625ebaf9af097eccdf24");
    ("Music", "narrow.only", "wrong_path", "5dca06724b3f136e4ec04993596d366b");
    ("Music", "critic.reorder", "table_i", "3f78d843fbc94107a8384f5c7512f0f0");
    ("Music", "critic.reorder", "2x_fd", "e160b7def8079495b067e63a541e4d4e");
    ("Music", "critic.reorder", "4x_icache+backend_prio", "4b97760480f24965a42f1fff9c45d43d");
    ("Music", "critic.reorder", "narrow2", "e3601cc46a92da4bd282e187fc306240");
    ("Music", "critic.reorder", "free_cdp+efetch", "a5f4a86fdbda20e41165e3a73133d554");
    ("Music", "critic.reorder", "perfect_bp+clp", "34be58f0244f26bc414dbd60acdb1785");
    ("Music", "critic.reorder", "wrong_path", "47c6edb04370db19221f5781f1f5a751");
    ("lbm", "narrow.only", "table_i", "ab5b4f65cfc666cce999ef1b90d053b1");
    ("lbm", "narrow.only", "2x_fd", "544ba3c2420758d7c988f14c6c8adae9");
    ("lbm", "narrow.only", "4x_icache+backend_prio", "fbf805214920a36b075f56100a3fa619");
    ("lbm", "narrow.only", "narrow2", "15eb5e26612ee919bf07ec4c25a2a067");
    ("lbm", "narrow.only", "free_cdp+efetch", "7cbd2918431a1587cc59d65585fe58dc");
    ("lbm", "narrow.only", "perfect_bp+clp", "01eff21e971dab189312429825f46b35");
    ("lbm", "narrow.only", "wrong_path", "889f3a33de5b7637f6b18ab69e7f229c");
    ("lbm", "critic.reorder", "table_i", "d4f014cb4947667cbd9dd9147b43d05f");
    ("lbm", "critic.reorder", "2x_fd", "85e41505df37114134c70a75a815a293");
    ("lbm", "critic.reorder", "4x_icache+backend_prio", "819898737b1be65caed324a0740de10f");
    ("lbm", "critic.reorder", "narrow2", "59bae7fc1e40ea5ecffec430aff6ab15");
    ("lbm", "critic.reorder", "free_cdp+efetch", "569177a212c7aa3ae5e68dd51b93258c");
    ("lbm", "critic.reorder", "perfect_bp+clp", "74ef7ab2c44e017b9bc00a92292404b4");
    ("lbm", "critic.reorder", "wrong_path", "0ee4b4e4741560c3ab454babbe6a0dea");
  ]

let hybrid_schemes =
  [ Critics.Scheme.Narrow_only; Critics.Scheme.Critic_reorder ]

(* Non-default i-cache replacement policies (PR 10), recorded the day
   the policy laboratory landed, same loop and 6000-instruction budget.
   Two machines: Table I with SRRIP, and with TRRIP (whose fill hints
   come from the profiler's block-heat tiers via Run.stats).  These lock
   the RRIP family against silent drift the same way the tables above
   lock the engine; the reference-model properties in test_mem lock the
   policies against their specs. *)
(* Music and lbm never fill an L1i set at this budget, so the policy is
   never consulted and their digests equal the LRU recordings above —
   the equality is itself part of the contract (invalid-way preference
   stays policy-independent).  Acrobat's i-side working set does evict:
   its srrip digests diverge from table_i's, as does critic under trrip
   (baseline under trrip happens to pick the same victims as LRU at
   this budget). *)
let golden_policy =
  [
    ("Acrobat", "baseline", "srrip_i", "00082a0fe28faf4a5da7071f810aac72");
    ("Acrobat", "baseline", "trrip_i", "49933c833a1d353408309a48c812486c");
    ("Acrobat", "critic", "srrip_i", "ef8b40dabfbd8277023671be0145c600");
    ("Acrobat", "critic", "trrip_i", "bd0a22d05f32636ca58d225b028649a5");
    ("Music", "baseline", "srrip_i", "9ec6091ef9bbf1f144546267bccfe309");
    ("Music", "baseline", "trrip_i", "9ec6091ef9bbf1f144546267bccfe309");
    ("Music", "critic", "srrip_i", "8575238a4352ff267ef33b0fc9f26808");
    ("Music", "critic", "trrip_i", "8575238a4352ff267ef33b0fc9f26808");
    ("lbm", "baseline", "srrip_i", "3b0c9772abb73d90dc13d62ab7b1403a");
    ("lbm", "baseline", "trrip_i", "3b0c9772abb73d90dc13d62ab7b1403a");
    ("lbm", "critic", "srrip_i", "d4f014cb4947667cbd9dd9147b43d05f");
    ("lbm", "critic", "trrip_i", "d4f014cb4947667cbd9dd9147b43d05f");
  ]

let policy_configs =
  let with_policy p =
    {
      Pipeline.Config.table_i with
      mem = { Pipeline.Config.table_i.mem with Mem.Hierarchy.l1i_policy = p };
    }
  in
  [
    ("srrip_i", with_policy Mem.Replacement.Srrip);
    ("trrip_i", with_policy Mem.Replacement.Trrip);
  ]

let policy_schemes = [ Critics.Scheme.Baseline; Critics.Scheme.Critic ]

(* CRITICS_TELEMETRY=1 re-runs the whole suite with a cycle-attribution
   probe attached to every simulation.  The digests must not change:
   the probe is observational, and this is the proof at golden-contract
   strength.  CI runs the suite both ways. *)
let probe () =
  match Sys.getenv_opt "CRITICS_TELEMETRY" with
  | None | Some "" | Some "0" -> None
  | Some _ -> Some (Telemetry.Probe.create ~window:256 ())

let cases ~configs schemes =
  List.concat_map
    (fun app ->
      let ctx =
        Critics.Run.prepare ~instrs:6_000
          (Option.get (Workload.Apps.find app))
      in
      List.concat_map
        (fun scheme ->
          List.map
            (fun (cname, config) ->
              ( app,
                Critics.Scheme.name scheme,
                cname,
                digest (Critics.Run.stats ~config ?probe:(probe ()) ctx scheme) ))
            configs)
        schemes)
    [ "Acrobat"; "Music"; "lbm" ]

let cases_for schemes = cases ~configs:Oracle.Differential.configs schemes

(* Regeneration mode: CRITICS_GOLDEN_PRINT=1 prints each table as
   ready-to-paste OCaml tuples instead of asserting, so an intentional
   semantic change updates the contract with one run. *)
let print_mode () =
  match Sys.getenv_opt "CRITICS_GOLDEN_PRINT" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let check_table ?(what = "stats") golden actual =
  if print_mode () then
    List.iter
      (fun (app, scheme, cfg, d) ->
        Printf.printf "    (%S, %S, %S, %S);\n" app scheme cfg d)
      actual
  else begin
    Alcotest.(check int) "case count" (List.length golden) (List.length actual);
    List.iter2
      (fun (app, scheme, cfg, want) (app', scheme', cfg', got) ->
        Alcotest.(check (triple string string string))
          "case identity" (app, scheme, cfg) (app', scheme', cfg');
        Alcotest.(check string)
          (Printf.sprintf "%s/%s/%s %s digest" app scheme cfg what)
          want got)
      golden actual
  end

let test_stats_match_recorded_engine () =
  check_table golden (cases_for schemes)

let test_policy_machines_match_recorded () =
  check_table golden_policy (cases ~configs:policy_configs policy_schemes)

let test_hybrid_schemes_match_recorded () =
  let actual = cases_for hybrid_schemes in
  check_table golden_hybrid actual;
  (* Structural half of the commuting claim: every critic.reorder
     digest must equal the recorded critic digest for the same
     (app, config) — not merely match its own recording. *)
  if not (print_mode ()) then
    List.iter
      (fun (app, scheme, cfg, got) ->
        if scheme = "critic.reorder" then
          match
            List.find_opt
              (fun (a, s, c, _) -> a = app && s = "critic" && c = cfg)
              golden
          with
          | Some (_, _, _, want) ->
            Alcotest.(check string)
              (Printf.sprintf "%s/critic.reorder/%s equals critic" app cfg)
              want got
          | None ->
            Alcotest.failf "no recorded critic digest for %s/%s" app cfg)
      actual

(* Compiled programs: the MD5 of a canonical serialization of every
   transformed scheme's program at a 20 000-instruction budget.  The
   stats digests above cannot see all a compile decides — the uids of
   CDP markers, or an encoding change that costs no cycle — and these
   can.  [program_digest] writes the program field by field through
   the public readers (entry, layout, [max_uid], and per block its id,
   function, terminator and every instruction's fields), so the digest
   is a function of what the program says, not of how its values are
   laid out in memory: neither which equal operands are one value nor
   how [Isa.Instr.t] stores its fields changes it.  The values were
   printed from the library whose programs still matched the earlier
   recording (the [Marshal.No_sharing] digests of the programs as they
   were before [Isa.Instr.make] shared operands), by a program making
   this test's own calls.  Never re-record them: a compiler refactor
   must reproduce every field. *)
let golden_programs =
  [
    ("Acrobat", "hoist", "program", "e07a6f264f75226eefeb2127a63b052a");
    ("Acrobat", "critic", "program", "414c1522a9bd46a529c98fcdd33ba574");
    ("Acrobat", "critic.ideal", "program", "755436d1d80c5b219aaceb1e575eb3f6");
    ("Acrobat", "critic.branches", "program", "d44a1c292ce65f5608e4557ec4097174");
    ("Acrobat", "macro.ideal", "program", "6edc307eec011c9ba36b4086987c5f36");
    ("Acrobat", "opp16", "program", "2c0feac80a363d8e035dee964f496170");
    ("Acrobat", "compress", "program", "bb09d8d3f3c1a97ec51b00407feb73f8");
    ("Acrobat", "opp16+critic", "program", "31517d03715487a3da7e20271e1bd9eb");
    ("Acrobat", "narrow.only", "program", "deb4d232f78cefbe7090dcee367ea911");
    ("Acrobat", "critic.reorder", "program", "414c1522a9bd46a529c98fcdd33ba574");
    ("Music", "hoist", "program", "7d17894e84665b396a87ac777ecce9e2");
    ("Music", "critic", "program", "99c4a64617d93be2ed8514d8a9426fbb");
    ("Music", "critic.ideal", "program", "53ea5346d942418d6ea03bbd3b0b729b");
    ("Music", "critic.branches", "program", "e313208505af055da74b49ccfc9417f9");
    ("Music", "macro.ideal", "program", "8dd93fa1b87604a6686e40aa4d581cf8");
    ("Music", "opp16", "program", "1a1ec9355b288c2332feba483bcf92c5");
    ("Music", "compress", "program", "253868262fd5910e9925ad80a0947eec");
    ("Music", "opp16+critic", "program", "a2c9ad34a26756c8b67d463001f638ef");
    ("Music", "narrow.only", "program", "a760d922ef3c1dbecac55fd7fdc08005");
    ("Music", "critic.reorder", "program", "99c4a64617d93be2ed8514d8a9426fbb");
    ("lbm", "hoist", "program", "0e1f260b5f05134b5213ac5e0b069b31");
    ("lbm", "critic", "program", "8150f17f63248ab62499d7feec30c0a4");
    ("lbm", "critic.ideal", "program", "c8bb72940a219bd9eb20cf2ddf6b0ec2");
    ("lbm", "critic.branches", "program", "e85a31ec409eb44c42664ad1189edf24");
    ("lbm", "macro.ideal", "program", "a3e94a0738e2ee9724aa4ea868bd30b5");
    ("lbm", "opp16", "program", "1ac16886dfe89e3f6531acd7d14f3043");
    ("lbm", "compress", "program", "90934b5473da09ae7aa806811151f8b2");
    ("lbm", "opp16+critic", "program", "c82ec967d1062e97933e803ec69eb851");
    ("lbm", "narrow.only", "program", "b0fae870473db9ada18547f4a4a4a305");
    ("lbm", "critic.reorder", "program", "8150f17f63248ab62499d7feec30c0a4");
  ]

let program_digest program =
  let module I = Isa.Instr in
  let b = Buffer.create 65536 in
  let int n =
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b ' '
  in
  let str s =
    Buffer.add_string b s;
    Buffer.add_char b ' '
  in
  let reg r = int (Isa.Reg.index r) in
  let instr (i : I.t) =
    int i.uid;
    str (Isa.Opcode.to_string (I.opcode i));
    int (Isa.Encode.cond_bits (I.cond i));
    str
      (match I.encoding i with
      | I.Arm32 -> "a32"
      | I.Thumb16 -> "t16"
      | I.Fused -> "fused");
    (match I.dst i with None -> str "-" | Some r -> reg r);
    int (List.length i.srcs);
    List.iter reg i.srcs;
    (match i.mem with
    | None -> str "-"
    | Some m ->
      int m.region;
      int m.stride;
      int m.working_set;
      str (Printf.sprintf "%h" m.randomness));
    (match i.chain with
    | None -> str "-"
    | Some c ->
      int c.chain_id;
      int c.pos;
      int c.len);
    int (I.cdp_count i);
    Buffer.add_char b '\n'
  in
  let module B = Prog.Block in
  let module P = Prog.Program in
  int (P.entry program);
  int (P.num_blocks program);
  int (P.code_size program);
  int (P.max_uid program);
  Buffer.add_char b '\n';
  Array.iter
    (fun (blk : B.t) ->
      int blk.id;
      int blk.func;
      int (P.block_addr program blk.id);
      (match blk.term with
      | B.Fallthrough n ->
        str "ft";
        int n
      | B.Cond_branch { taken; not_taken; taken_bias } ->
        str "cb";
        int taken;
        int not_taken;
        str (Printf.sprintf "%h" taken_bias)
      | B.Jump n ->
        str "j";
        int n
      | B.Call { callee; return_to } ->
        str "call";
        int callee;
        int return_to
      | B.Return -> str "ret");
      int (Array.length blk.body);
      Buffer.add_char b '\n';
      Array.iter instr blk.body)
    (P.blocks program);
  Digest.to_hex (Digest.string (Buffer.contents b))

let program_cases () =
  List.concat_map
    (fun app ->
      let ctx =
        Critics.Run.prepare ~instrs:20_000
          (Option.get (Workload.Apps.find app))
      in
      List.filter_map
        (fun scheme ->
          if scheme = Critics.Scheme.Baseline then None
          else
            Some
              ( app,
                Critics.Scheme.name scheme,
                "program",
                program_digest (Critics.Run.transformed ctx scheme) ))
        Critics.Scheme.all)
    [ "Acrobat"; "Music"; "lbm" ]

let test_programs_match_recorded () =
  check_table ~what:"program" golden_programs (program_cases ())

(* Sweeps: the MD5 of the marshalled result of each artifact that
   derives its own databases — Fig. 12's chain-length and coverage
   sweeps, the threshold and metric ablations, Fig. 5a's wide-window
   chain shapes — run on one harness at a 6000-instruction budget.  The
   bytes hold every float's bits, so a sweep that reaches its numbers
   another way must reach the same ones.  Recorded before the sweeps
   became harness jobs; never re-record them. *)
let golden_sweeps =
  [
    ("fig12", "0b5e64495f7ac1f9a1c2cd1530021b75");
    ("ablations", "62f6a8870938d514f37e34c7f0f49518");
    ("fig5", "6801d3af205db090e54f75b9208e549c");
  ]

let sweep_cases () =
  let h = Experiments.Harness.create ~instrs:6_000 ~jobs:1 () in
  let digest r = Digest.to_hex (Digest.string (Marshal.to_string r [])) in
  [
    ("fig12", digest (Experiments.Fig12.run h));
    ("ablations", digest (Experiments.Ablations.run h));
    ("fig5", digest (Experiments.Fig05.run h));
  ]

let test_sweeps_match_recorded () =
  let actual = sweep_cases () in
  if print_mode () then
    List.iter (fun (id, d) -> Printf.printf "    (%S, %S);\n" id d) actual
  else
    Alcotest.(check (list (pair string string)))
      "sweep result digests" golden_sweeps actual

let () =
  Alcotest.run "golden"
    [
      ( "windowed engine vs recorded stats",
        [
          Alcotest.test_case "63 (app x scheme x config) digests" `Slow
            test_stats_match_recorded_engine;
          Alcotest.test_case "42 hybrid-scheme digests" `Slow
            test_hybrid_schemes_match_recorded;
          Alcotest.test_case "12 policy-machine digests" `Slow
            test_policy_machines_match_recorded;
        ] );
      ( "compiler vs recorded programs",
        [
          Alcotest.test_case "30 (app x scheme) program digests" `Slow
            test_programs_match_recorded;
        ] );
      ( "sweeps vs recorded results",
        [
          Alcotest.test_case "fig12, ablations and fig5 digests" `Slow
            test_sweeps_match_recorded;
        ] );
    ]
