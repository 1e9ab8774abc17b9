(* Prepared-context store: key invalidation, corruption fallback,
   crash-orphan sweep, what the store holds, warm-harness reuse, and the
   allocation-free simulator-core contract. *)

let fresh_dir () =
  let path = Filename.temp_file "critics-store" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_store f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () -> f dir (Store.open_dir dir))

let app name = Option.get (Workload.Apps.find name)

(* ------------------------------------------------------------------ *)
(* Keys                                                               *)

let test_key_deterministic () =
  let k1 = Store.key ~kind:"blob" [ "a"; "bc" ]
  and k2 = Store.key ~kind:"blob" [ "a"; "bc" ] in
  Alcotest.(check string)
    "same inputs, same digest" (Store.key_digest k1) (Store.key_digest k2)

let test_key_framing () =
  (* length framing: part boundaries must not alias *)
  let k1 = Store.key ~kind:"blob" [ "ab"; "c" ]
  and k2 = Store.key ~kind:"blob" [ "a"; "bc" ]
  and k3 = Store.key ~kind:"blob" [ "abc" ] in
  let d1 = Store.key_digest k1
  and d2 = Store.key_digest k2
  and d3 = Store.key_digest k3 in
  Alcotest.(check bool) "ab|c <> a|bc" true (d1 <> d2);
  Alcotest.(check bool) "ab|c <> abc" true (d1 <> d3)

let test_key_kind_and_code_version () =
  let d kind cv = Store.key_digest (Store.key ~code_version:cv ~kind [ "x" ]) in
  Alcotest.(check bool) "kind changes digest" true (d "a" "v1" <> d "b" "v1");
  Alcotest.(check bool)
    "code version changes digest" true
    (d "a" "v1" <> d "a" "v2")

(* Every rebuild that changes the binary changes every key, in a
   checkout or outside one. *)
let test_code_version_is_executable_digest () =
  Alcotest.(check string) "MD5 of the running executable"
    (Digest.to_hex (Digest.file Sys.executable_name))
    (Store.code_version ())

(* A kind is the entry's directory under the store root.  One that
   names the root itself, its parent, the morgue or a deeper path would
   put entries where [entry_count] and [clear] never look. *)
let test_key_kind_stays_in_its_directory () =
  List.iter
    (fun kind ->
      match Store.key ~kind [ "x" ] with
      | _ -> Alcotest.failf "kind %S accepted" kind
      | exception Invalid_argument _ -> ())
    [ ""; "."; ".."; "corrupt"; "/"; "a/b"; "../a"; "a/" ];
  List.iter
    (fun kind -> ignore (Store.key ~kind [ "x" ]))
    [ "context"; "..."; ".a"; "corrupted" ]

let test_context_key_sensitivity () =
  let acrobat = app "Acrobat" in
  let base = Store.key_digest (Critics.Run.context_key acrobat) in
  let again = Store.key_digest (Critics.Run.context_key acrobat) in
  Alcotest.(check string) "stable across calls" base again;
  (* every preparation parameter and the profile bytes must invalidate *)
  let changed =
    [
      ( "profile bytes",
        Store.key_digest
          (Critics.Run.context_key { acrobat with seed = acrobat.seed + 1 }) );
      ("instrs", Store.key_digest (Critics.Run.context_key ~instrs:7 acrobat));
      ("sample", Store.key_digest (Critics.Run.context_key ~sample:3 acrobat));
    ]
  in
  List.iter
    (fun (what, d) ->
      Alcotest.(check bool) (what ^ " invalidates") true (d <> base))
    changed

let test_config_bytes_invalidate () =
  (* the harness keys simulation results on a digest of the marshalled
     Config.t: any field change must produce a different store key *)
  let fp (c : Pipeline.Config.t) = Digest.string (Marshal.to_string c []) in
  let base = Pipeline.Config.table_i in
  let tweaked = { base with rob = base.rob + 1 } in
  let d c = Store.key_digest (Store.key ~kind:"stats" [ "ctx"; "IC+"; fp c ]) in
  Alcotest.(check bool)
    "Config.t field change invalidates" true
    (d base <> d tweaked);
  Alcotest.(check string) "equal configs agree" (d base) (d { base with rob = base.rob })

(* ------------------------------------------------------------------ *)
(* Entries                                                            *)

let test_roundtrip_bytes () =
  with_store (fun _dir st ->
      let k = Store.key ~kind:"blob" [ "payload-1" ] in
      let payload = String.init 4096 (fun i -> Char.chr (i * 31 land 0xff)) in
      Alcotest.(check (option string)) "cold miss" None (Store.find st k);
      Store.add st k payload;
      Alcotest.(check (option string))
        "hit is byte-identical" (Some payload) (Store.find st k);
      let s = Store.stats st in
      Alcotest.(check int) "one miss" 1 s.misses;
      Alcotest.(check int) "one hit" 1 s.hits;
      Alcotest.(check int) "one write" 1 s.writes;
      Alcotest.(check int) "no corruption" 0 s.corrupt)

let test_fuzzed_program_roundtrip () =
  (* round-trip property over fuzzed programs: store-served bytes
     rebuild a structurally identical program for arbitrary genomes *)
  with_store (fun _dir st ->
      for seed = 0 to 24 do
        let p = Workload.Fuzz.program_of_seed seed in
        let bytes = Marshal.to_string p [] in
        let k = Store.key ~kind:"program" [ "fuzz"; string_of_int seed ] in
        Store.add st k bytes;
        match Store.find st k with
        | None -> Alcotest.failf "seed %d: stored program missing" seed
        | Some b ->
          let p' : Prog.Program.t = Marshal.from_string b 0 in
          Alcotest.(check string)
            (Printf.sprintf "seed %d rebuilds identically" seed)
            (Digest.string bytes)
            (Digest.string (Marshal.to_string p' []))
      done)

let test_corruption_falls_back () =
  with_store (fun dir st ->
      let k = Store.key ~kind:"blob" [ "to-corrupt" ] in
      Store.add st k "precious bytes";
      let path = Filename.concat (Filename.concat dir "blob") (Store.key_digest k) in
      Alcotest.(check bool) "entry on disk" true (Sys.file_exists path);
      (* flip a payload byte in place *)
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd (-3) Unix.SEEK_END);
      ignore (Unix.write_substring fd "X" 0 1);
      Unix.close fd;
      Alcotest.(check (option string))
        "corrupt entry reads as miss" None (Store.find st k);
      Alcotest.(check int) "counted as corrupt" 1 (Store.stats st).corrupt;
      Alcotest.(check bool) "corrupt entry removed" false (Sys.file_exists path);
      (* ...but not destroyed: it moved to the morgue for post-mortems *)
      Alcotest.(check int) "quarantined for post-mortem" 1
        (List.length (Store.quarantined st));
      (* recompute-and-add recovers *)
      Store.add st k "precious bytes";
      Alcotest.(check (option string))
        "recovers after re-add" (Some "precious bytes") (Store.find st k))

let test_memo () =
  with_store (fun _dir st ->
      let k = Store.key ~kind:"blob" [ "memo" ] in
      let calls = ref 0 in
      let compute () =
        incr calls;
        [ 1; 2; 3 ]
      in
      let check label ~calls:c counts =
        Alcotest.(check (list int)) (label ^ ": value") [ 1; 2; 3 ]
          (Store.memo (Some st) k compute);
        Alcotest.(check int) (label ^ ": computations") c !calls;
        let s = Store.stats st in
        Alcotest.(check (list int))
          (label ^ ": hit/miss/write/corrupt")
          counts
          [ s.hits; s.misses; s.writes; s.corrupt ]
      in
      check "miss computes once and writes" ~calls:1 [ 0; 1; 1; 0 ];
      check "hit neither computes nor writes" ~calls:1 [ 1; 1; 1; 0 ];
      (* The header verifies, so [find] serves the payload as a hit;
         only the Marshal decode can reject it. *)
      Store.add st k "verified header, not a marshalled value";
      check "undecodable payload recomputes and overwrites" ~calls:2
        [ 2; 1; 3; 0 ];
      check "overwritten entry then hits" ~calls:2 [ 3; 1; 3; 0 ];
      ignore (Store.memo None k compute);
      ignore (Store.memo None k compute);
      Alcotest.(check int) "no store computes every call" 4 !calls;
      Alcotest.(check int) "no store leaves the store alone" 3
        (Store.stats st).writes)

let corrupt_in_place dir k =
  let path =
    Filename.concat (Filename.concat dir "blob") (Store.key_digest k)
  in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd (-2) Unix.SEEK_END);
  ignore (Unix.write_substring fd "X" 0 1);
  Unix.close fd

let test_quarantine_bounded_and_invisible () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let st = Store.open_dir ~quarantine_limit:3 dir in
      (* Corrupt five distinct entries; the morgue must hold only the
         three newest. *)
      for i = 1 to 5 do
        let k = Store.key ~kind:"blob" [ string_of_int i ] in
        Store.add st k "payload payload";
        corrupt_in_place dir k;
        Alcotest.(check (option string))
          "corrupt entry misses" None (Store.find st k)
      done;
      Alcotest.(check int) "morgue bounded at the limit" 3
        (List.length (Store.quarantined st));
      Alcotest.(check int) "five counted corrupt" 5 (Store.stats st).corrupt;
      (* The morgue is invisible to cache accounting and clearing. *)
      Alcotest.(check int) "no visible entries" 0 (Store.entry_count st);
      Alcotest.(check int) "nothing to clear" 0 (Store.clear st);
      Alcotest.(check int) "clear spares the morgue" 3
        (List.length (Store.quarantined st));
      (* A reopened store still sees the quarantined files. *)
      let st2 = Store.open_dir dir in
      Alcotest.(check int) "morgue survives reopen" 3
        (List.length (Store.quarantined st2)))

let test_version_mismatch_misses () =
  with_store (fun _dir st ->
      let k_old = Store.key ~code_version:"build-1" ~kind:"blob" [ "x" ] in
      let k_new = Store.key ~code_version:"build-2" ~kind:"blob" [ "x" ] in
      Store.add st k_old "old artifact";
      Alcotest.(check (option string))
        "new code version misses old entry" None (Store.find st k_new);
      Alcotest.(check (option string))
        "old key still hits" (Some "old artifact") (Store.find st k_old))

(* Domains of one pool share a store: no counter update may be lost. *)
let test_counters_across_domains () =
  with_store (fun _dir st ->
      let k = Store.key ~kind:"blob" [ "absent" ] in
      let miss_many () =
        for _ = 1 to 20_000 do
          ignore (Store.find st k)
        done
      in
      let other = Domain.spawn miss_many in
      miss_many ();
      Domain.join other;
      Alcotest.(check int) "every miss counted" 40_000 (Store.stats st).misses)

(* The harness shares one store across its pool: two domains reading
   different entries through [memo] at once each get their own value,
   and neither sees the other's bytes (the read buffer is per domain). *)
let test_two_domains_memo () =
  with_store (fun _dir st ->
      let context = Array.init 200_000 (fun i -> i * 7)
      and stats = List.init 40 string_of_int in
      let k_context = Store.key ~kind:"context" [ "two domains" ]
      and k_stats = Store.key ~kind:"stats" [ "two domains" ] in
      Store.add st k_context (Marshal.to_string context []);
      Store.add st k_stats (Marshal.to_string stats []);
      let reads k value n () =
        let wrong = ref 0 in
        for _ = 1 to n do
          let got =
            Store.memo (Some st) k (fun () ->
                incr wrong;
                value)
          in
          if got <> value then incr wrong
        done;
        !wrong
      in
      let other = Domain.spawn (reads k_stats stats 4_000) in
      let wrong_context = reads k_context context 100 () in
      let wrong_stats = Domain.join other in
      Alcotest.(check (pair int int)) "every read its own value" (0, 0)
        (wrong_context, wrong_stats);
      let s = Store.stats st in
      Alcotest.(check (list int)) "hit/miss/write/corrupt"
        [ 4_100; 0; 2; 0 ]
        [ s.hits; s.misses; s.writes; s.corrupt ])

let test_clear_and_sizes () =
  with_store (fun _dir st ->
      Store.add st (Store.key ~kind:"a" [ "1" ]) "xx";
      Store.add st (Store.key ~kind:"b" [ "2" ]) "yyyy";
      Alcotest.(check int) "two entries" 2 (Store.entry_count st);
      Alcotest.(check bool) "bytes counted" true (Store.total_bytes st > 6);
      Alcotest.(check int) "clear removes both" 2 (Store.clear st);
      Alcotest.(check int) "empty after clear" 0 (Store.entry_count st))

(* Any damage to a stored file: truncation, a flipped bit in the header
   or the payload, random bytes spliced over a span, a duplicated span. *)
let mutate rand ~header_len s =
  let module G = QCheck.Gen in
  let n = String.length s in
  let at () = G.int_bound n rand in
  match G.int_bound 3 rand with
  | 0 -> String.sub s 0 (G.int_bound (n - 1) rand)
  | 1 ->
    let i =
      if G.bool rand || header_len = n then G.int_bound (header_len - 1) rand
      else G.int_range header_len (n - 1) rand
    in
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl G.int_bound 7 rand)));
    Bytes.to_string b
  | 2 ->
    let i = at () in
    let cut = min (n - i) (G.int_bound 16 rand) in
    String.sub s 0 i
    ^ G.string_size ~gen:G.char (G.int_bound 16) rand
    ^ String.sub s (i + cut) (n - i - cut)
  | _ ->
    let i = at () in
    let len = min (n - i) (G.int_range 1 64 rand) in
    String.sub s 0 (i + len) ^ String.sub s i (n - i)

(* Each case stores a random payload under a random kind, damages the
   file, and reads it back: [find] returns the payload only while the
   file is unchanged, else a miss counted [corrupt] with the file moved
   to the morgue; [memo] over a damaged marshalled value returns the
   right value.  Nothing raises. *)
let prop_store_mutations =
  let gen =
    QCheck.Gen.(
      triple
        (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))
        (string_size ~gen:char (int_bound 600))
        (int_bound 1_000_000))
  in
  let print (kind, payload, seed) =
    Printf.sprintf "kind %S, %d-byte payload, seed %d" kind
      (String.length payload) seed
  in
  QCheck.Test.make ~name:"damaged entries: payload, miss or recompute"
    ~count:300 (QCheck.make ~print gen) (fun (kind, payload, seed) ->
      QCheck.assume (kind <> "corrupt");
      let rand = Random.State.make [| seed |] in
      with_store (fun dir st ->
          let damage k =
            let path =
              Filename.concat (Filename.concat dir kind) (Store.key_digest k)
            in
            let text = Util.Atomic_io.read_file path in
            let header_len = String.index text '\n' + 1 in
            let damaged = mutate rand ~header_len text in
            Util.Atomic_io.write path damaged;
            (path, damaged <> text)
          in
          let quarantined k =
            List.mem
              (Filename.concat (Store.quarantine_dir st)
                 (kind ^ "." ^ Store.key_digest k))
              (Store.quarantined st)
          in
          let k = Store.key ~kind [ "find"; string_of_int seed ] in
          Store.add st k payload;
          let path, changed = damage k in
          let before = (Store.stats st).corrupt in
          let found = Store.find st k in
          let corrupt = (Store.stats st).corrupt - before in
          if changed then begin
            if found <> None then QCheck.Test.fail_report "damage not caught";
            if corrupt <> 1 then QCheck.Test.fail_reportf "corrupt +%d" corrupt;
            if Sys.file_exists path || not (quarantined k) then
              QCheck.Test.fail_report "damaged file not quarantined"
          end
          else if found <> Some payload || corrupt <> 0 then
            QCheck.Test.fail_report "unchanged entry not served";
          let k = Store.key ~kind [ "memo"; string_of_int seed ] in
          let value = (payload, String.length payload) in
          Store.add st k (Marshal.to_string value []);
          ignore (damage k);
          Store.memo (Some st) k (fun () -> value) = value))

(* ------------------------------------------------------------------ *)
(* Checksum                                                           *)

(* The read path sums a payload inside its read buffer, at whatever
   offset the header ends: it must agree with the whole-string form
   there, and read nothing around the range. *)
let test_checksum_in_place () =
  let rand = Random.State.make [| 26 |] in
  let byte () = Char.chr (Random.State.int rand 256) in
  for len = 0 to 300 do
    let s = String.init len (fun _ -> byte ()) in
    let pos = Random.State.int rand 40 in
    let buf =
      Bytes.init (pos + len + Random.State.int rand 40) (fun _ -> byte ())
    in
    Bytes.blit_string s 0 buf pos len;
    Alcotest.(check string)
      (Printf.sprintf "length %d at offset %d" len pos)
      (Util.Checksum.string s)
      (Util.Checksum.subbytes buf pos len)
  done

let test_checksum_bit_flips () =
  let s = String.init 256 (fun i -> Char.chr ((i * 37) land 0xff)) in
  let sum = Util.Checksum.string s in
  for bit = 0 to (256 * 8) - 1 do
    let b = Bytes.of_string s in
    let i = bit / 8 in
    Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl (bit mod 8))));
    let flipped = Util.Checksum.string (Bytes.to_string b) in
    (* Both 64-bit lanes take every word, so both halves change. *)
    if
      String.sub flipped 0 16 = String.sub sum 0 16
      || String.sub flipped 16 16 = String.sub sum 16 16
    then Alcotest.failf "flipping bit %d of 256 bytes leaves a lane as is" bit
  done

let test_checksum_zero_padding () =
  for len = 0 to 64 do
    let s = String.make len 'x' in
    Alcotest.(check bool)
      (Printf.sprintf "appending a zero byte to %d bytes" len)
      true
      (Util.Checksum.string s <> Util.Checksum.string (s ^ "\000"))
  done

(* Every stored entry carries this function's value: a change to it
   turns them all into corrupt misses unless [Store.format_version]
   changes with it. *)
let test_checksum_known_answer () =
  Alcotest.(check (list string))
    "known answers (changed? bump Store.format_version)"
    [ "b8cb396de59eab6aef46db3751d8e999"; "80a272969c3b9ea34bed88336e800ae2" ]
    [ Util.Checksum.string "";
      (* four whole words and a 5-byte tail *)
      Util.Checksum.string "critics-store payload, 37 bytes long." ]

(* ------------------------------------------------------------------ *)
(* Crash-orphan sweep                                                 *)

let test_store_sweeps_orphans () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let sub = Filename.concat dir "context" in
      Unix.mkdir sub 0o755;
      let plant path =
        let oc = open_out path in
        output_string oc "half-written";
        close_out oc
      in
      let orphan_top = Filename.concat dir "dead.tmp"
      and orphan_sub = Filename.concat sub "dead.tmp"
      and survivor = Filename.concat sub "0123456789abcdef" in
      plant orphan_top;
      plant orphan_sub;
      plant survivor;
      let st = Store.open_dir dir in
      Alcotest.(check bool) "top orphan swept" false (Sys.file_exists orphan_top);
      Alcotest.(check bool) "kind orphan swept" false (Sys.file_exists orphan_sub);
      Alcotest.(check bool) "non-tmp survives" true (Sys.file_exists survivor);
      ignore st)

let test_db_io_sweeps_orphans () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let orphan = Filename.concat dir "profile.db.tmp" in
      let oc = open_out orphan in
      output_string oc "torn write";
      close_out oc;
      Alcotest.(check int) "one orphan swept" 1 (Profiler.Db_io.sweep_tmp dir);
      Alcotest.(check bool) "orphan gone" false (Sys.file_exists orphan);
      Alcotest.(check int) "idempotent" 0 (Profiler.Db_io.sweep_tmp dir))

(* ------------------------------------------------------------------ *)
(* Prepared-context reuse                                             *)

let small_instrs = 2_000

let ctx_digest (ctx : Critics.Run.app_context) =
  Digest.string
    (Marshal.to_string (ctx.program, ctx.seed, ctx.path, ctx.event_count, ctx.db) [])

let test_prepare_warm_identical () =
  with_store (fun _dir st ->
      let cold = Critics.Run.prepare ~store:st ~instrs:small_instrs (app "Acrobat") in
      Alcotest.(check bool) "cold run wrote" true ((Store.stats st).writes > 0);
      let warm = Critics.Run.prepare ~store:st ~instrs:small_instrs (app "Acrobat") in
      Alcotest.(check bool) "warm run hit" true ((Store.stats st).hits > 0);
      Alcotest.(check string) "same fingerprint" cold.ckey warm.ckey;
      Alcotest.(check string)
        "store-served context bit-identical" (ctx_digest cold) (ctx_digest warm))

let program_digest (p : Prog.Program.t) =
  Digest.to_hex (Digest.string (Marshal.to_string p []))

(* The store keeps what is expensive to derive (contexts, simulations)
   and nothing a cheap compile reproduces: transformed programs stay out
   of it, and a warm context compiles them again to the same bytes. *)
let test_store_holds_contexts_and_stats_only () =
  let email = app "Email" in
  let jobs =
    List.map
      (Experiments.Harness.job email)
      Critics.Scheme.[ Baseline; Critic; Opp16_critic ]
  in
  with_store (fun dir st ->
      let h1 =
        Experiments.Harness.create ~instrs:small_instrs ~jobs:1 ~store:st ()
      in
      Experiments.Harness.run_batch h1 jobs;
      let kinds =
        List.filter
          (fun k ->
            let d = Filename.concat dir k in
            Sys.is_directory d && Sys.readdir d <> [||])
          (List.sort compare (Array.to_list (Sys.readdir dir)))
      in
      Alcotest.(check (list string))
        "cold run wrote contexts and stats only" [ "context"; "stats" ] kinds;
      let writes = (Store.stats st).writes in
      Alcotest.(check int) "one context, three stats" 4 writes;
      let p_cold =
        Critics.Run.transformed
          (Experiments.Harness.context h1 email)
          Critics.Scheme.Critic
      in
      let h2 =
        Experiments.Harness.create ~instrs:small_instrs ~jobs:1 ~store:st ()
      in
      Experiments.Harness.run_batch h2 jobs;
      Alcotest.(check int) "warm run hit everything" 4 (Store.stats st).hits;
      Alcotest.(check int) "warm run wrote nothing" writes (Store.stats st).writes;
      let warm = Experiments.Harness.context h2 email in
      let p_warm = Critics.Run.transformed warm Critics.Scheme.Critic in
      Alcotest.(check int)
        "warm context compiles Critic once" 1
        (Critics.Run.transform_count warm);
      Alcotest.(check string) "identical transformed program"
        (program_digest p_cold) (program_digest p_warm);
      (* A database variant's simulation is one more stats entry, read
         back by the next harness. *)
      let variant = Critics.Run.{ prepared with threshold = 2.0 } in
      let stats_entries () =
        Array.length (Sys.readdir (Filename.concat dir "stats"))
      in
      let entries = stats_entries () and writes = (Store.stats st).writes in
      let v_cold =
        Experiments.Harness.stats h2 ~variant email Critics.Scheme.Critic
      in
      Alcotest.(check int) "one variant stats entry" (entries + 1)
        (stats_entries ());
      Alcotest.(check int) "one variant write" (writes + 1)
        (Store.stats st).writes;
      let h3 =
        Experiments.Harness.create ~instrs:small_instrs ~jobs:1 ~store:st ()
      in
      let hits = (Store.stats st).hits in
      let v_warm =
        Experiments.Harness.stats h3 ~variant email Critics.Scheme.Critic
      in
      Alcotest.(check int) "context and variant stats hit" (hits + 2)
        (Store.stats st).hits;
      Alcotest.(check int) "variant read writes nothing" (writes + 1)
        (Store.stats st).writes;
      Alcotest.(check bool) "variant stats read back" true (v_cold = v_warm))

(* A variant's database is stored under [database/] and read back by
   the next harness; the prepared variant's is the context's own and
   is never stored. *)
let test_variant_database_stored () =
  let email = app "Email" in
  let wide = Critics.Run.{ prepared with window = 2048 } in
  with_store (fun dir st ->
      let entries kind =
        let d = Filename.concat dir kind in
        if Sys.file_exists d then Array.length (Sys.readdir d) else 0
      in
      let harness () =
        Experiments.Harness.create ~instrs:small_instrs ~jobs:1 ~store:st ()
      in
      let h1 = harness () in
      Experiments.Harness.run_batch h1
        [ Experiments.Harness.context_job email ];
      Alcotest.(check int) "prepared context job stores no database" 0
        (entries "database");
      Alcotest.(check bool) "prepared database is the context's own" true
        (Experiments.Harness.database h1 email Critics.Run.prepared
        == (Experiments.Harness.context h1 email).db);
      Alcotest.(check int) "and is never stored" 0 (entries "database");
      Experiments.Harness.run_batch h1
        [ Experiments.Harness.context_job ~variant:wide email ];
      Alcotest.(check int) "variant context job stores its database" 1
        (entries "database");
      let cold = Experiments.Harness.database h1 email wide in
      let s0 = Store.stats st in
      let warm = Experiments.Harness.database (harness ()) email wide in
      let s1 = Store.stats st in
      Alcotest.(check int) "context and database hit" (s0.hits + 2) s1.hits;
      Alcotest.(check int) "warm read misses nothing" s0.misses s1.misses;
      Alcotest.(check int) "warm read writes nothing" s0.writes s1.writes;
      Alcotest.(check bool) "equal database read back" true (cold = warm))

(* Telemetry cells run live: a probe observes the run itself, so a
   telemetry harness neither reads nor writes stored stats, keeps a
   probe on every cell, and returns the stats a stored cell holds. *)
let test_telemetry_cells_run_live () =
  let email = app "Email" in
  let schemes = Critics.Scheme.[ Baseline; Critic; Opp16_critic ] in
  let jobs = List.map (Experiments.Harness.job email) schemes in
  with_store (fun dir st ->
      let stats_entries () =
        let d = Filename.concat dir "stats" in
        if Sys.file_exists d then Array.length (Sys.readdir d) else 0
      in
      let counters () =
        let s = Store.stats st in
        (s.hits, s.misses, s.writes)
      in
      let run ?telemetry () =
        let h =
          Experiments.Harness.create ~instrs:small_instrs ~jobs:1 ?telemetry
            ~store:st ()
        in
        Experiments.Harness.run_batch h jobs;
        h
      in
      let counts = Alcotest.(triple int int int) in
      let live = run ~telemetry:256 () in
      Alcotest.check counts "live cells write their context only" (0, 1, 1)
        (counters ());
      Alcotest.(check int) "no stats entry" 0 (stats_entries ());
      let stored = run () in
      Alcotest.check counts "stored cells: context hit, three stats written"
        (1, 4, 4) (counters ());
      let live' = run ~telemetry:256 () in
      Alcotest.check counts "live cells read their context only" (2, 4, 4)
        (counters ());
      List.iter
        (fun h ->
          Alcotest.(check int) "a probe on every cell" (List.length schemes)
            (List.length (Experiments.Harness.telemetry_probes h));
          List.iter
            (fun scheme ->
              let name = Critics.Scheme.name scheme in
              Alcotest.(check bool) (name ^ ": probe kept") true
                (Experiments.Harness.probe_for h email scheme <> None);
              Alcotest.(check bool) (name ^ ": stats = stored cell's") true
                (Experiments.Harness.stats h email scheme
                = Experiments.Harness.stats stored email scheme))
            schemes)
        [ live; live' ])

let test_harness_warm_stats () =
  with_store (fun _dir st ->
      let stats h =
        Experiments.Harness.stats h (app "Acrobat") Critics.Scheme.Critic
      in
      let h1 = Experiments.Harness.create ~instrs:small_instrs ~jobs:1 ~store:st () in
      let s1 = stats h1 in
      let writes_after_cold = (Store.stats st).writes in
      Alcotest.(check bool) "cold harness wrote" true (writes_after_cold > 0);
      let h2 = Experiments.Harness.create ~instrs:small_instrs ~jobs:1 ~store:st () in
      let s2 = stats h2 in
      Alcotest.(check bool) "warm harness hit" true ((Store.stats st).hits > 0);
      Alcotest.(check int)
        "no new writes on warm run" writes_after_cold (Store.stats st).writes;
      Alcotest.(check string) "bit-identical stats"
        (Digest.string (Marshal.to_string s1 []))
        (Digest.string (Marshal.to_string s2 [])))

(* ------------------------------------------------------------------ *)
(* Allocation-free windowed core                                      *)

let test_window_loop_allocation_free () =
  (* The per-cycle loop must be GC-silent: minor allocation for a run is
     a setup constant plus a miss-bounded residue, not O(cycles).  Run
     the same recorded trace at 1x and 4x length — setup is identical,
     so the delta difference is the per-event cost.  The bound (0.5
     words/event) leaves room for the miss-driven Hashtbl bookkeeping
     while failing loudly if any per-cycle allocation returns. *)
  let ctx = Critics.Run.prepare ~instrs:20_000 (app "Acrobat") in
  let trace = Critics.Run.trace_of ctx Critics.Scheme.Baseline in
  let big = Array.concat [ trace; trace; trace; trace ] in
  let cfg = Pipeline.Config.table_i in
  let run tr =
    ignore
      (Pipeline.Cpu.run_stream cfg (fun () -> Prog.Trace.Stream.of_trace tr))
  in
  run trace;
  (* warm code paths *)
  let measure tr =
    (* A major cycle ending inside the window would add its own words. *)
    Gc.full_major ();
    let g0 = Gc.minor_words () in
    run tr;
    Gc.minor_words () -. g0
  in
  let d1 = measure trace in
  let d4 = measure big in
  let extra_events = 3 * Array.length trace in
  let per_event = (d4 -. d1) /. float_of_int extra_events in
  if per_event >= 0.5 then
    Alcotest.failf
      "window loop allocates %.3f minor words per event (1x=%.0f 4x=%.0f over \
       %d extra events); the core is no longer allocation-free"
      per_event d1 d4 extra_events

let () =
  Alcotest.run "store"
    [
      ( "keys",
        [
          Alcotest.test_case "deterministic" `Quick test_key_deterministic;
          Alcotest.test_case "length framing" `Quick test_key_framing;
          Alcotest.test_case "kind and code version" `Quick
            test_key_kind_and_code_version;
          Alcotest.test_case "code version is the executable's digest"
            `Quick test_code_version_is_executable_digest;
          Alcotest.test_case "kind stays in its directory" `Quick
            test_key_kind_stays_in_its_directory;
          Alcotest.test_case "context key sensitivity" `Quick
            test_context_key_sensitivity;
          Alcotest.test_case "config bytes invalidate" `Quick
            test_config_bytes_invalidate;
        ] );
      ( "entries",
        [
          Alcotest.test_case "byte-identical roundtrip" `Quick
            test_roundtrip_bytes;
          Alcotest.test_case "fuzzed program roundtrip" `Quick
            test_fuzzed_program_roundtrip;
          Alcotest.test_case "corruption falls back" `Quick
            test_corruption_falls_back;
          Alcotest.test_case "memo miss, hit, undecodable, no store" `Quick
            test_memo;
          Alcotest.test_case "quarantine bounded and invisible" `Quick
            test_quarantine_bounded_and_invisible;
          Alcotest.test_case "version mismatch misses" `Quick
            test_version_mismatch_misses;
          Alcotest.test_case "clear and sizes" `Quick test_clear_and_sizes;
          Alcotest.test_case "counters across domains" `Quick
            test_counters_across_domains;
          Alcotest.test_case "two domains, one store" `Quick
            test_two_domains_memo;
          QCheck_alcotest.to_alcotest prop_store_mutations;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "in place = whole string" `Quick
            test_checksum_in_place;
          Alcotest.test_case "every bit flip changes both lanes" `Quick
            test_checksum_bit_flips;
          Alcotest.test_case "a zero byte appended changes it" `Quick
            test_checksum_zero_padding;
          Alcotest.test_case "known answer" `Quick test_checksum_known_answer;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "store sweeps orphans" `Quick
            test_store_sweeps_orphans;
          Alcotest.test_case "db_io sweeps orphans" `Quick
            test_db_io_sweeps_orphans;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "prepare warm identical" `Quick
            test_prepare_warm_identical;
          Alcotest.test_case "store holds contexts and stats only" `Quick
            test_store_holds_contexts_and_stats_only;
          Alcotest.test_case "harness warm stats" `Quick test_harness_warm_stats;
          Alcotest.test_case "variant database stored, prepared one not"
            `Quick test_variant_database_stored;
          Alcotest.test_case "telemetry cells run live" `Quick
            test_telemetry_cells_run_live;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "window loop allocation-free" `Quick
            test_window_loop_allocation_free;
        ] );
    ]
