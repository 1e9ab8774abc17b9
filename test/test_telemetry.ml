(* Telemetry observability tests.

   Three contracts are locked down here:

   - the {e accounting contract}: the probe's windowed cycle-attribution
     samples, summed per population, reproduce the simulator's own
     [Stats.stage_summary] field for field, for every seed application
     and scheme, at every harness parallelism width;
   - {e observational purity}: attaching a probe (and a trace ring)
     changes neither the returned [Stats.t] nor the commit log, on
     arbitrary fuzzed programs;
   - the {e Chrome trace schema}: exported trace JSON parses, validates
     (per-track monotonic timestamps, paired async spans), survives
     ring truncation, and a fixed seed reproduces the committed golden
     trace byte for byte. *)

module H = Experiments.Harness
module P = Telemetry.Probe
module R = Telemetry.Registry
module CT = Telemetry.Chrome_trace
module F = Workload.Fuzz

let check = Alcotest.(check bool)

(* ------------------------ accounting contract --------------------- *)

let smoke_instrs = 2_500
let probe_window = 256

let schemes =
  [
    Critics.Scheme.Baseline; Critics.Scheme.Critic; Critics.Scheme.Opp16_critic;
  ]

let all_jobs () =
  List.concat_map
    (fun p -> List.map (fun s -> H.job p s) schemes)
    Workload.Apps.all

let stage_labels =
  [
    "count"; "fetch_i"; "fetch_rd"; "decode"; "rename"; "issue_wait";
    "execute"; "commit_wait";
  ]

let totals_fields (t : P.stage_totals) =
  [
    t.count; t.fetch_i; t.fetch_rd; t.decode; t.rename; t.issue_wait;
    t.execute; t.commit_wait;
  ]

let summary_fields (s : Pipeline.Stats.stage_summary) =
  [
    s.count; s.fetch_i; s.fetch_rd; s.decode; s.rename; s.issue_wait;
    s.execute; s.commit_wait;
  ]

let sample_fields (w : P.window_sample) =
  [
    w.w_count; w.w_fetch_i; w.w_fetch_rd; w.w_decode; w.w_rename;
    w.w_issue_wait; w.w_execute; w.w_commit_wait;
  ]

let labeled fields = List.combine stage_labels fields

(* Sum of the flushed window samples of one population. *)
let sum_samples probe pop =
  List.fold_left
    (fun acc w ->
      if w.P.w_pop = pop then List.map2 ( + ) acc (sample_fields w) else acc)
    [ 0; 0; 0; 0; 0; 0; 0; 0 ]
    (P.samples probe)

let check_contract h =
  List.iter
    (fun (profile : Workload.Profile.t) ->
      List.iter
        (fun scheme ->
          let st = H.stats h profile scheme in
          let probe =
            match H.probe_for h profile scheme with
            | Some p -> p
            | None ->
              Alcotest.failf "%s/%s: no probe memoized" profile.name
                (Critics.Scheme.name scheme)
          in
          let pops =
            [
              (P.All, st.Pipeline.Stats.stage_all);
              (P.Critical, st.Pipeline.Stats.stage_critical);
              (P.Chain, st.Pipeline.Stats.stage_chain);
            ]
          in
          List.iter
            (fun (pop, summary) ->
              let label what =
                Printf.sprintf "%s/%s/%s: %s" profile.name
                  (Critics.Scheme.name scheme) (P.population_name pop) what
              in
              let want = summary_fields summary in
              Alcotest.(check (list (pair string int)))
                (label "probe totals = stage summary")
                (labeled want)
                (labeled (totals_fields (P.totals probe pop)));
              Alcotest.(check (list (pair string int)))
                (label "window samples sum to stage summary")
                (labeled want)
                (labeled (sum_samples probe pop)))
            pops)
        schemes)
    Workload.Apps.all

(* Every application x scheme at the smoke budget, through the batch
   harness at width 1 and width 4.  Both widths must satisfy the
   accounting contract and hold the same cells, each with a
   byte-identical probe registry: job scheduling order cannot leak into
   any cell's probe. *)
let test_accounting_contract () =
  let mk jobs =
    let h = H.create ~instrs:smoke_instrs ~jobs ~telemetry:probe_window () in
    H.run_batch h (all_jobs ());
    h
  in
  let h1 = mk 1 in
  let h4 = mk 4 in
  check_contract h1;
  check_contract h4;
  let registries h =
    List.map
      (fun (key, p) -> (key, R.to_json (P.registry p)))
      (H.telemetry_probes h)
  in
  let r1 = registries h1 in
  Alcotest.(check int) "one probe per cell"
    (List.length Workload.Apps.all * List.length schemes)
    (List.length r1);
  Alcotest.(check (list (pair string string)))
    "jobs=1 and jobs=4 probe registries agree key by key" r1 (registries h4)

(* --------------------- observational purity ----------------------- *)

let digest_stats (st : Pipeline.Stats.t) =
  Digest.to_hex (Digest.string (Marshal.to_string st []))

(* One fuzzed run: stats digest + commit-log digest, with runtime
   invariants armed (which, with a probe attached, also asserts the
   probe's totals against the simulator's accumulators). *)
let run_fuzzed ?probe spec =
  let program = F.build spec in
  let path = Prog.Walk.path_for_instrs program ~seed:17 ~instrs:300 in
  let b = Buffer.create 512 in
  let on_commit (c : Pipeline.Cpu.commit) =
    Buffer.add_string b (string_of_int c.Pipeline.Cpu.commit_seq);
    Buffer.add_char b ':';
    Buffer.add_string b (string_of_int c.Pipeline.Cpu.commit_cycle);
    Buffer.add_char b ';'
  in
  let st =
    Pipeline.Cpu.run_stream ~checks:true ?probe ~on_commit
      Pipeline.Config.table_i (fun () ->
        Prog.Trace.Stream.of_program program ~seed:17 path)
  in
  (digest_stats st, Digest.to_hex (Digest.string (Buffer.contents b)))

let prop_probe_is_observational =
  QCheck.Test.make
    ~name:"telemetry on vs off: identical stats and commit log" ~count:50
    F.arbitrary (fun spec ->
      let off = run_fuzzed spec in
      let probe =
        P.create ~window:64 ~trace:(CT.create ~capacity:1024 ()) ()
      in
      let on = run_fuzzed ~probe spec in
      if off <> on then
        QCheck.Test.fail_reportf
          "stats or commit log diverged with a probe attached"
      else true)

(* --------------------- registry merge algebra --------------------- *)

let reg_of_chunk vs =
  let r = R.create () in
  let h = R.histogram r "h" in
  let c = R.counter r "events" in
  let g = R.gauge r "peak" in
  List.iter
    (fun v ->
      R.observe h v;
      R.incr c;
      R.set_max g v)
    vs;
  r

let merge_all order chunks =
  let into = R.create () in
  List.iter (fun i -> R.merge_into ~into (List.nth chunks i)) order;
  R.to_json into

let prop_merge_order_insensitive =
  QCheck.Test.make
    ~name:"registry merge is associative and order-insensitive" ~count:100
    QCheck.(small_list (small_list small_nat))
    (fun chunks_vs ->
      let chunks = List.map reg_of_chunk chunks_vs in
      let n = List.length chunks in
      let fwd = merge_all (List.init n Fun.id) chunks in
      let rev = merge_all (List.rev (List.init n Fun.id)) chunks in
      (* Regroup: odd-indexed chunks meet in an intermediate registry
         that is folded in last — a different association of the same
         multiset of merges. *)
      let assoc =
        let into = R.create () in
        let mid = R.create () in
        List.iteri
          (fun i r ->
            R.merge_into ~into:(if i mod 2 = 0 then into else mid) r)
          chunks;
        R.merge_into ~into mid;
        R.to_json into
      in
      fwd = rev && fwd = assoc)

(* A merge never half-applies.  If a name of [src] is bound in [into]
   to another kind, [merger] returns [merge_into]'s message and
   [merge_into] raises it, and [into] is unchanged; otherwise [into] is
   unchanged until [merger]'s thunk runs, which is [merge_into]. *)
let prop_merge_all_or_nothing =
  QCheck.Test.make ~name:"a merge that clashes changes nothing" ~count:300
    QCheck.(
      pair
        (small_list (pair (int_bound 5) (int_bound 2)))
        (small_list (pair (int_bound 5) (int_bound 2))))
    (fun (a, b) ->
      let build metrics =
        let r = R.create () in
        List.iter
          (fun (name, kind) ->
            let name = "m" ^ string_of_int name in
            try
              match kind with
              | 0 -> R.add (R.counter r name) 1
              | 1 -> R.set_max (R.gauge r name) 2
              | _ -> R.observe (R.histogram r name) 3
            with Invalid_argument _ -> ())
          metrics;
        r
      in
      let into = build a and src = build b in
      let before = R.to_bytes into in
      match R.merger ~into src with
      | Error msg -> (
        R.to_bytes into = before
        &&
        match R.merge_into ~into src with
        | () -> false
        | exception Invalid_argument m -> m = msg && R.to_bytes into = before)
      | Ok merge ->
        let other = Result.get_ok (R.of_bytes before) in
        R.merge_into ~into:other src;
        R.to_bytes into = before
        && (merge ();
            R.to_bytes into = R.to_bytes other))

(* -------------------------- wire codec ---------------------------- *)

(* [of_bytes] as it stood before it scanned in place, kept as the
   reference the decoder must agree with byte for byte and error for
   error.  The parse is copied unchanged; only the registry it fills is
   a model (name -> kind and raw values), because a histogram's state
   cannot be set through the public interface.  [bytes] prints the model
   the way [to_bytes] did, through Printf. *)
module Reference = struct
  type metric = C of int | G of int | H of int * int * int * int list

  let kind_name = function
    | C _ -> "counter"
    | G _ -> "gauge"
    | H _ -> "histogram"

  (* [Registry.counter] and friends: a name keeps its first kind. *)
  let bind tbl name m =
    (match Hashtbl.find_opt tbl name with
    | Some old when kind_name old <> kind_name m ->
      invalid_arg
        (Printf.sprintf "Telemetry.Registry: %S already bound as a %s" name
           (kind_name old))
    | _ -> ());
    match (Hashtbl.find_opt tbl name, m) with
    | Some (C a), C b -> Hashtbl.replace tbl name (C (a + b))
    | _ -> Hashtbl.replace tbl name m

  exception Wire of string

  let of_bytes text =
    try
      let n = String.length text in
      let pos = ref 0 in
      let fail fmt = Printf.ksprintf (fun m -> raise (Wire m)) fmt in
      let line () =
        match String.index_from_opt text !pos '\n' with
        | None -> fail "missing newline at byte %d" !pos
        | Some nl ->
          let l = String.sub text !pos (nl - !pos) in
          pos := nl + 1;
          l
      in
      if n < String.length "CRTREG01" + 1 || line () <> "CRTREG01" then
        raise (Wire "bad magic");
      let t = Hashtbl.create 16 in
      let parse_name l at =
        match String.index_from_opt l at ':' with
        | None -> fail "missing name frame"
        | Some colon -> (
          match int_of_string_opt (String.sub l at (colon - at)) with
          | Some len when len >= 0 && colon + 1 + len <= String.length l ->
            (String.sub l (colon + 1) len, colon + 1 + len)
          | _ -> fail "bad name frame")
      in
      let ints_after l at =
        String.sub l at (String.length l - at)
        |> String.split_on_char ' '
        |> List.filter (fun s -> s <> "")
        |> List.map (fun s ->
               match int_of_string_opt s with
               | Some v -> v
               | None -> fail "bad integer %S" s)
      in
      while !pos < n do
        let l = line () in
        if String.length l < 2 then fail "short line";
        let name, rest = parse_name l 2 in
        let vals = ints_after l rest in
        match (l.[0], vals) with
        | 'c', [ v ] -> bind t name (C v)
        | 'g', [ v ] -> bind t name (G v)
        | 'h', cnt :: sum :: hmax :: buckets when List.length buckets = 64 ->
          bind t name (H (cnt, sum, hmax, buckets))
        | k, _ -> fail "bad metric line kind %c" k
      done;
      Ok t
    with
    | Wire msg -> Error msg
    | Invalid_argument msg -> Error msg

  let bytes t =
    let buf = Buffer.create 256 in
    Buffer.add_string buf "CRTREG01\n";
    Hashtbl.fold (fun name _ acc -> name :: acc) t []
    |> List.sort compare
    |> List.iter (fun name ->
           let framed = Printf.sprintf "%d:%s" (String.length name) name in
           match Hashtbl.find t name with
           | C c -> Buffer.add_string buf (Printf.sprintf "c %s %d\n" framed c)
           | G g -> Buffer.add_string buf (Printf.sprintf "g %s %d\n" framed g)
           | H (n, sum, hmax, buckets) ->
             Buffer.add_string buf
               (Printf.sprintf "h %s %d %d %d" framed n sum hmax);
             List.iter
               (fun b -> Buffer.add_string buf (Printf.sprintf " %d" b))
               buckets;
             Buffer.add_char buf '\n');
    Buffer.contents buf
end

(* The decoder's result as comparable bytes: the registry re-encoded, or
   the error string. *)
let decoded text =
  match R.of_bytes text with
  | Ok r -> Ok (R.to_bytes r)
  | Error e -> Error e

let reference text =
  match Reference.of_bytes text with
  | Ok t -> Ok (Reference.bytes t)
  | Error e -> Error e

let show = function
  | Ok b -> Printf.sprintf "Ok %S" b
  | Error e -> Printf.sprintf "Error %S" e

(* Registries with every kind, negative and extreme values, and names
   holding the framing bytes. *)
let gen_name =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'z'; '0'; ':'; ' '; '\n'; '\x80'; '\xff' ])
      (int_range 0 6))

let gen_value =
  QCheck.Gen.(
    oneof
      [ int_range (-1000) 1000; oneofl [ min_int; max_int; 0; -1 ]; int ])

let gen_registry =
  QCheck.Gen.(
    list_size (int_range 0 8)
      (triple (int_range 0 2) gen_name (list_size (int_range 1 5) gen_value)))

let build_registry spec =
  let r = R.create () in
  List.iter
    (fun (kind, name, vs) ->
      try
        match kind with
        | 0 -> List.iter (R.add (R.counter r name)) vs
        | 1 -> List.iter (R.set (R.gauge r name)) vs
        | _ -> List.iter (R.observe (R.histogram r name)) vs
      with Invalid_argument _ -> (* name taken by another kind *) ())
    spec;
  r

(* Lines end at the first '\n', so a name holding one encodes but does
   not decode: the line is cut short of its frame. *)
let prop_wire_roundtrip =
  QCheck.Test.make ~name:"to_bytes (of_bytes (to_bytes r)) = to_bytes r"
    ~count:500
    (QCheck.make ~print:(fun spec -> R.to_bytes (build_registry spec))
       gen_registry)
    (fun spec ->
      let r = build_registry spec in
      let b = R.to_bytes r in
      let newline_name =
        List.exists (fun (name, _) -> String.contains name '\n') (R.snapshot r)
      in
      match R.of_bytes b with
      | Ok r' -> (not newline_name) && R.to_bytes r' = b
      | Error e -> newline_name && e = "bad name frame")

(* Client payloads: every app's first users. *)
let population_payloads =
  lazy
    (Array.of_list
       (List.concat_map
          (fun p ->
            List.init 4 (fun user ->
                (Workload.Population.upload p ~user).payload))
          Workload.Apps.all))

(* What a torn, corrupted or hostile upload looks like: truncation, a
   flipped byte, a deleted or duplicated span, a span spliced in from
   another payload, and inserted spaces, signs, radix prefixes and
   digit separators. *)
let mutate rand payloads s =
  let module G = QCheck.Gen in
  let n = String.length s in
  let at () = G.int_bound n rand in
  let span () =
    let i = at () in
    (i, min (n - i) (G.int_range 1 12 rand))
  in
  match G.int_bound 6 rand with
  | 0 -> String.sub s 0 (at ())
  | 1 when n > 0 ->
    let b = Bytes.of_string s in
    let i = G.int_bound (n - 1) rand in
    Bytes.set b i
      (if G.bool rand then Char.chr (Char.code s.[i] lxor (1 lsl G.int_bound 7 rand))
       else G.oneofl [ ' '; '\n'; ':'; '-'; '+'; '0'; '9'; 'c'; 'g'; 'h' ] rand);
    Bytes.to_string b
  | 2 ->
    let i, len = span () in
    String.sub s 0 i ^ String.sub s (i + len) (n - i - len)
  | 3 ->
    let i, len = span () in
    String.sub s 0 (i + len) ^ String.sub s i (n - i)
  | 4 ->
    let other = payloads.(G.int_bound (Array.length payloads - 1) rand) in
    let j = G.int_bound (String.length other) rand in
    let len = min (String.length other - j) (G.int_range 1 40 rand) in
    let i = at () in
    String.sub s 0 i ^ String.sub other j len ^ String.sub s i (n - i)
  | _ ->
    let i = at () in
    String.sub s 0 i
    ^ G.oneofl
        [ " "; "  "; "+"; "-"; "0x"; "0X"; "0b"; "0o"; "0u"; "_"; "1_";
          "999999999999999999"; "4611686018427387904"; "\n" ]
        rand
    ^ String.sub s i (n - i)

let mutations_per_case = 64

(* Each case: a payload and a chain of up to three mutations of it, each
   step decoded, so accepted and rejected inputs both occur. *)
let gen_mutation_case =
  QCheck.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))

let mutated_inputs (pick, seed) =
  let payloads = Lazy.force population_payloads in
  let rand = Random.State.make [| seed |] in
  let base = payloads.(pick mod Array.length payloads) in
  base
  :: List.init mutations_per_case (fun _ ->
         let rec chain s k =
           if k = 0 then s else chain (mutate rand payloads s) (k - 1)
         in
         chain base (1 + Random.State.int rand 3))

let prop_wire_differential =
  QCheck.Test.make ~name:"of_bytes = the reference decoder on mutated payloads"
    ~count:300
    (QCheck.make ~print:(fun (p, s) -> Printf.sprintf "payload %d seed %d" p s)
       gen_mutation_case)
    (fun case ->
      List.for_all
        (fun text ->
          let got = decoded text and want = reference text in
          got = want
          || QCheck.Test.fail_reportf "input %S:@ got %s@ want %s" text
               (show got) (show want))
        (mutated_inputs case))

(* The grammar's corners, each pinned to its expected result as well as
   to the reference. *)
let test_wire_quirks () =
  let reg lines = "CRTREG01\n" ^ String.concat "" lines in
  let counter v = Ok (reg [ "c 1:a " ^ v ^ "\n" ]) in
  let cases =
    [
      (* the byte after the kind is not checked; no space is needed
         after the name; several spaces may separate tokens *)
      (reg [ "cX1:a5\n" ], counter "5");
      (reg [ "c 1:a   5  \n" ], counter "5");
      (* int_of_string_opt's forms *)
      (reg [ "c 1:a +5\n" ], counter "5");
      (reg [ "c 1:a 0x1F\n" ], counter "31");
      (reg [ "c 1:a 1_000\n" ], counter "1000");
      (reg [ "c 1:a 0u7\n" ], counter "7");
      (reg [ "c 1:a -0\n" ], counter "0");
      (reg [ "c 0x1:a 2\n" ], counter "2");
      (reg [ "c 1:a 4611686018427387903\n" ], counter "4611686018427387903");
      (reg [ "c 1:a -4611686018427387904\n" ], counter "-4611686018427387904");
      (reg [ "c 1:a 4611686018427387904\n" ],
       Error "bad integer \"4611686018427387904\"");
      (reg [ "c 1:a 999999999999999999\n" ], counter "999999999999999999");
      (* every integer is read before the kind is checked *)
      (reg [ "x 1:a foo\n" ], Error "bad integer \"foo\"");
      (reg [ "x 1:a 1\n" ], Error "bad metric line kind x");
      (reg [ "c 1:a 1 2\n" ], Error "bad metric line kind c");
      (reg [ "h 1:a 1 2 3\n" ], Error "bad metric line kind h");
      (reg [ "c 1:a\t1\n" ], Error "bad integer \"\\t1\"");
      (* framing *)
      ("CRTREG01", Error "bad magic");
      ("CRTREG01X", Error "missing newline at byte 0");
      ("CRTREG02\n", Error "bad magic");
      (" CRTREG01\n", Error "bad magic");
      ("CRTREG01\n", Ok "CRTREG01\n");
      (reg [ "c 1:a 1" ], Error "missing newline at byte 9");
      (reg [ "c\n" ], Error "short line");
      (reg [ "c 1a 1\n" ], Error "missing name frame");
      (reg [ "c  1:a 1\n" ], Error "bad name frame");
      (reg [ "c -1:a 1\n" ], Error "bad name frame");
      (reg [ "c 9:a 1\n" ], Error "bad name frame");
      (reg [ "c 4611686018427387903:a 1\n" ], Error "String.sub / Bytes.sub");
      (* repeated names: counters add, gauges overwrite; kinds stay *)
      (reg [ "c 1:a 1\n"; "c 1:a 2\n" ], counter "3");
      (reg [ "g 1:a 1\n"; "g 1:a 2\n" ], Ok (reg [ "g 1:a 2\n" ]));
      (reg [ "c 1:a 1\n"; "g 1:a 2\n" ],
       Error "Telemetry.Registry: \"a\" already bound as a counter");
    ]
  in
  List.iter
    (fun (text, want) ->
      let got = decoded text in
      Alcotest.(check string) (Printf.sprintf "%S" text) (show want) (show got);
      Alcotest.(check string)
        (Printf.sprintf "%S: reference" text)
        (show (reference text)) (show got))
    cases

(* ROADMAP item 4: a decoder of client or disk bytes returns [Ok] or
   [Error] on any input, never an exception.  [Checkpoint.load] reads a
   file, so its mutations go through one; a mutated body is also
   re-framed with a valid digest, or the digest check would hide the
   body parser behind it. *)
let checkpoint_file =
  lazy
    (let reg = R.create () in
     R.add (R.counter reg "x") 5;
     R.observe (R.histogram reg "h") 40;
     let path = Filename.temp_file "critics-ckpt" ".bin" in
     Service.Checkpoint.save path
       {
         Service.Checkpoint.seq = 9;
         ids = [ ("b", 3); ("a\nb", 1); ("a:b 2", 4); ("", 7) ];
         registry = R.to_bytes reg;
       };
     let text = Util.Atomic_io.read_file path in
     Sys.remove path;
     text)

let reframe body =
  Printf.sprintf "CRTCKP01 %s %d\n%s"
    (Digest.to_hex (Digest.string body))
    (String.length body) body

(* Bodies a random mutation rarely produces: a negative id count, and
   an id length whose frame arithmetic overflows. *)
let checkpoint_corners =
  List.map reframe
    [
      "seq 1\nids -1\nregistry 0\n";
      "seq 1\nids 1\n4611686018427387903:a 1\nregistry 0\n";
    ]

let prop_decoders_total =
  QCheck.Test.make ~name:"of_bytes and Checkpoint.load are total over mutated bytes"
    ~count:100
    (QCheck.make ~print:(fun (p, s) -> Printf.sprintf "payload %d seed %d" p s)
       gen_mutation_case)
    (fun ((_, seed) as case) ->
      List.iter (fun text -> ignore (R.of_bytes text)) (mutated_inputs case);
      let file = Lazy.force checkpoint_file in
      let body = String.sub file (String.index file '\n' + 1)
          (String.length file - String.index file '\n' - 1) in
      let rand = Random.State.make [| seed |] in
      let path = Filename.temp_file "critics-ckpt" ".bin" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          List.iter
            (fun text ->
              Util.Atomic_io.write path text;
              match Service.Checkpoint.load path with
              | Ok _ | Error _ -> ())
            (List.init 16 (fun k ->
                 if k mod 2 = 0 then mutate rand [| file |] file
                 else reframe (mutate rand [| body |] body))
            @ checkpoint_corners));
      true)

(* A decode allocates the registry it returns and nothing per token:
   at most one minor word per payload byte (the line-splitting decoder
   took 3 342 words for a 637-byte payload). *)
let test_decode_allocation () =
  List.iter
    (fun (p : Workload.Profile.t) ->
      let payload = (Workload.Population.upload p ~user:3).payload in
      ignore (R.of_bytes payload);
      Gc.full_major ();
      let w0 = Gc.minor_words () in
      let r = R.of_bytes payload in
      let words = Gc.minor_words () -. w0 in
      check (p.name ^ ": payload decodes") true (Result.is_ok r);
      if words > float_of_int (String.length payload) then
        Alcotest.failf "%s: decoding %d bytes allocated %.0f minor words"
          p.name (String.length payload) words)
    Workload.Apps.all

(* ------------------------ chrome trace schema --------------------- *)

(* Fixed-seed trace: Music under the CritIC scheme exercises every
   event kind the exporter knows — stage counter tracks, chain async
   spans — deterministically. *)
let build_fixed_trace () =
  let ctx =
    Critics.Run.prepare ~instrs:2_000
      (Option.get (Workload.Apps.find "Music"))
  in
  let tr = CT.create ~capacity:8192 () in
  let probe = P.create ~window:64 ~trace:tr () in
  ignore (Critics.Run.stats ~probe ctx Critics.Scheme.Critic);
  tr

let test_trace_schema () =
  let tr = build_fixed_trace () in
  let json = CT.to_json tr in
  Alcotest.(check int) "nothing dropped at this capacity" 0 (CT.dropped tr);
  (match CT.validate json with
  | Ok n -> Alcotest.(check int) "validated event count" (CT.length tr) n
  | Error msg -> Alcotest.failf "trace does not validate: %s" msg);
  let t = Util.Json.parse json in
  let events = Util.Json.(arr (field "traceEvents" t)) in
  let phs =
    List.map (fun e -> Util.Json.(str (field "ph" e))) events
  in
  check "has counter samples" true (List.mem "C" phs);
  check "has async begins" true (List.mem "b" phs);
  check "has async ends" true (List.mem "e" phs);
  (* the deterministic printer is a parse fixpoint on its own output *)
  Alcotest.(check string) "parse . print is the identity" json
    (Util.Json.to_string t)

let test_validator_rejects () =
  let reject label text =
    match CT.validate text with
    | Ok _ -> Alcotest.failf "%s: accepted invalid trace" label
    | Error _ -> ()
  in
  let wrap evs = {|{"traceEvents":[|} ^ String.concat "," evs ^ "]}" in
  reject "garbage" "not json at all";
  reject "missing traceEvents" "{}";
  reject "unknown phase"
    (wrap [ {|{"name":"x","ph":"Z","ts":0,"pid":1,"tid":1}|} ]);
  reject "counter time goes backwards"
    (wrap
       [
         {|{"name":"s","ph":"C","ts":5,"pid":1,"tid":1,"args":{"value":1}}|};
         {|{"name":"s","ph":"C","ts":3,"pid":1,"tid":1,"args":{"value":1}}|};
       ]);
  reject "unmatched async begin"
    (wrap [ {|{"name":"c","cat":"chain","ph":"b","id":1,"ts":0,"pid":1,"tid":1}|} ]);
  reject "async end without begin"
    (wrap [ {|{"name":"c","cat":"chain","ph":"e","id":1,"ts":4,"pid":1,"tid":1}|} ]);
  reject "async end before its begin"
    (wrap
       [
         {|{"name":"c","cat":"chain","ph":"b","id":1,"ts":9,"pid":1,"tid":1}|};
         {|{"name":"c","cat":"chain","ph":"e","id":1,"ts":4,"pid":1,"tid":1}|};
       ]);
  match
    CT.validate
      (wrap
         [
           {|{"name":"c","cat":"chain","ph":"b","id":1,"ts":2,"pid":1,"tid":1}|};
           {|{"name":"c","cat":"chain","ph":"e","id":1,"ts":7,"pid":1,"tid":1}|};
         ])
  with
  | Ok n -> Alcotest.(check int) "well-formed span accepted" 2 n
  | Error msg -> Alcotest.failf "rejected a valid span: %s" msg

(* Overflowing the ring must stay well-formed: oldest events fall off,
   [dropped] counts them, and an async end whose begin was truncated is
   filtered out of the export so the result still validates. *)
let test_ring_truncation () =
  let tr = CT.create ~capacity:16 () in
  CT.async_begin tr ~ts:0 ~name:"chain-0" ~id:0;
  for ts = 1 to 100 do
    CT.counter tr ~ts ~name:"stage/execute" ~value:ts
  done;
  CT.async_end tr ~ts:200 ~name:"chain-0" ~id:0;
  check "ring is bounded" true (CT.length tr <= 16);
  check "overflow counted" true (CT.dropped tr > 0);
  match CT.validate (CT.to_json tr) with
  | Ok n -> check "truncated trace still validates" true (n > 0)
  | Error msg -> Alcotest.failf "truncated trace invalid: %s" msg

let golden_path = "data/golden_trace.json"

(* The fixed-seed trace must reproduce the committed golden file byte
   for byte ([write_file] appends one newline to the compact JSON).
   Regenerate after an intentional exporter change with
   [CRITICS_REGEN_GOLDEN=/abs/path/to/test/data/golden_trace.json]. *)
let test_golden_trace () =
  let tr = build_fixed_trace () in
  let json = CT.to_json tr ^ "\n" in
  match Sys.getenv_opt "CRITICS_REGEN_GOLDEN" with
  | Some path when path <> "" ->
    CT.write_file tr path;
    Printf.printf "regenerated %s (%d bytes)\n" path (String.length json)
  | _ ->
    let ic = open_in_bin golden_path in
    let want =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Alcotest.(check int)
      "golden trace size" (String.length want) (String.length json);
    check "golden trace bytes identical" true (String.equal want json);
    (match CT.validate want with
    | Ok n -> check "golden file validates" true (n > 0)
    | Error msg -> Alcotest.failf "golden file invalid: %s" msg)

let () =
  Alcotest.run "telemetry"
    [
      ( "accounting contract",
        [
          Alcotest.test_case "windows sum to stage summaries (26 apps, jobs 1 and 4)"
            `Slow test_accounting_contract;
        ] );
      ( "purity",
        [
          QCheck_alcotest.to_alcotest prop_probe_is_observational;
          QCheck_alcotest.to_alcotest prop_merge_order_insensitive;
          QCheck_alcotest.to_alcotest prop_merge_all_or_nothing;
        ] );
      ( "wire codec",
        [
          QCheck_alcotest.to_alcotest prop_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_wire_differential;
          Alcotest.test_case "grammar corners match the reference" `Quick
            test_wire_quirks;
          QCheck_alcotest.to_alcotest prop_decoders_total;
          Alcotest.test_case "decode allocates at most a word per byte" `Quick
            test_decode_allocation;
        ] );
      ( "chrome trace",
        [
          Alcotest.test_case "schema" `Quick test_trace_schema;
          Alcotest.test_case "validator rejects malformed traces" `Quick
            test_validator_rejects;
          Alcotest.test_case "ring truncation" `Quick test_ring_truncation;
          Alcotest.test_case "golden trace byte-identical" `Quick
            test_golden_trace;
        ] );
    ]
