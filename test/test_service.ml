(* Crash-recoverable ingest service: WAL framing and torn-tail repair,
   checkpoint round-trips, recovery/idempotence, and the deterministic
   chaos sweep — an injected abort at every IO index of WAL append,
   checkpoint install and store put, each proving recover-to-last-
   acknowledged with no torn visible state. *)

module Registry = Telemetry.Registry

let fresh_dir () =
  let path = Filename.temp_file "critics-service" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let app name = Option.get (Workload.Apps.find name)

let payload_of_counter name v =
  let reg = Registry.create () in
  Registry.add (Registry.counter reg name) v;
  Registry.to_bytes reg

let payload_of_gauge name v =
  let reg = Registry.create () in
  Registry.set (Registry.gauge reg name) v;
  Registry.to_bytes reg

(* ------------------------------------------------------------------ *)
(* WAL                                                                *)

let scan_exn path =
  match Service.Wal.scan path with
  | Ok s -> s
  | Error msg -> Alcotest.fail msg

let test_wal_roundtrip () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "wal.log" in
  let w = Service.Wal.open_writer path in
  Service.Wal.append w ~seq:1 ~id:"a" ~payload:"alpha";
  Service.Wal.append w ~seq:2 ~id:"b" ~payload:"";
  Service.Wal.append w ~seq:3 ~id:"" ~payload:"gamma";
  Service.Wal.close w;
  let s = scan_exn path in
  Alcotest.(check int) "no torn bytes" 0 s.torn_bytes;
  Alcotest.(check (list (triple int string string)))
    "records round-trip"
    [ (1, "a", "alpha"); (2, "b", ""); (3, "", "gamma") ]
    (List.map
       (fun r -> Service.Wal.(r.seq, r.id, r.payload))
       s.records)

let test_wal_torn_tail () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "wal.log" in
  let w = Service.Wal.open_writer path in
  Service.Wal.append w ~seq:1 ~id:"a" ~payload:"alpha";
  Service.Wal.close w;
  let whole = (Unix.stat path).Unix.st_size in
  (* Tear: half of a second record's bytes reach the disk. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\255\255\255";
  close_out oc;
  let s = scan_exn path in
  Alcotest.(check int) "good record kept" 1 (List.length s.records);
  Alcotest.(check int) "tear measured" 3 s.torn_bytes;
  Alcotest.(check int) "good_bytes at record boundary" whole s.good_bytes;
  Service.Wal.truncate_to path s.good_bytes;
  let s = scan_exn path in
  Alcotest.(check int) "repaired" 0 s.torn_bytes;
  Alcotest.(check int) "record survives repair" 1 (List.length s.records)

let test_wal_corrupt_record_stops_scan () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "wal.log" in
  let w = Service.Wal.open_writer path in
  Service.Wal.append w ~seq:1 ~id:"a" ~payload:"alpha";
  let first_end = (Unix.stat path).Unix.st_size in
  Service.Wal.append w ~seq:2 ~id:"b" ~payload:"beta";
  Service.Wal.close w;
  (* Flip one payload byte of record 1: its digest no longer verifies,
     so the scan must stop there — record 2, though intact, is
     unreachable garbage behind a bad frame. *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd (first_end - 1) Unix.SEEK_SET);
  ignore (Unix.write_substring fd "X" 0 1);
  Unix.close fd;
  let s = scan_exn path in
  Alcotest.(check int) "scan stops at corruption" 0 (List.length s.records);
  Alcotest.(check bool) "corruption counted as torn" true (s.torn_bytes > 0)

let test_wal_bad_magic () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "wal.log" in
  Util.Atomic_io.write path "NOTAWAL0";
  match Service.Wal.scan path with
  | Ok _ -> Alcotest.fail "bad magic accepted"
  | Error _ -> ()

(* ROADMAP item 4: [scan] reads whatever a crash or a bad disk left.
   On damaged bytes it must return (no exception, no hang), account for
   every byte, and return only records whose frames re-verify where it
   found them: the frame is re-encoded here from the record and compared
   with the file at that offset. *)
let wal_frame (r : Service.Wal.record) =
  let body =
    let b = Bytes.create 2 in
    Bytes.set_uint16_le b 0 (String.length r.id);
    Bytes.to_string b ^ r.id ^ r.payload
  in
  let seq_le =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int r.seq);
    Bytes.to_string b
  in
  let len =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int (String.length body));
    Bytes.to_string b
  in
  len ^ seq_le ^ Digest.string (seq_le ^ body) ^ body

let wal_logs =
  lazy
    (with_dir @@ fun dir ->
     let log name records =
       let path = Filename.concat dir name in
       let w = Service.Wal.open_writer path in
       List.iter
         (fun (seq, id, payload) -> Service.Wal.append w ~seq ~id ~payload)
         records;
       Service.Wal.close w;
       Util.Atomic_io.read_file path
     in
     [|
       log "a"
         [ (1, "maps/u1", payload_of_counter "population/uploads" 1);
           (2, "a\nb:c d", "");
           (3, "", payload_of_counter "x" 7);
           (4, "\xff\x00", String.make 40 '\n') ];
       log "b" [ (7, "email/u9", payload_of_counter "y" 3); (8, "z", "p") ];
     |])

(* Truncation, bit flips, spliced spans (from either log) and
   duplicated spans, chained. *)
let damage rand logs s =
  let module G = QCheck.Gen in
  let n = String.length s in
  let at () = G.int_bound n rand in
  match G.int_bound 3 rand with
  | 0 -> String.sub s 0 (at ())
  | 1 when n > 0 ->
    let b = Bytes.of_string s in
    let i = G.int_bound (n - 1) rand in
    Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl G.int_bound 7 rand)));
    Bytes.to_string b
  | 1 | 2 ->
    let other = logs.(G.int_bound (Array.length logs - 1) rand) in
    let j = G.int_bound (String.length other) rand in
    let len = min (String.length other - j) (G.int_range 1 64 rand) in
    let i = at () in
    let cut = min (n - i) (G.int_bound 64 rand) in
    String.sub s 0 i ^ String.sub other j len ^ String.sub s (i + cut) (n - i - cut)
  | _ ->
    let i = at () in
    let len = min (n - i) (G.int_range 1 64 rand) in
    String.sub s 0 (i + len) ^ String.sub s i (n - i)

let prop_wal_scan_total =
  QCheck.Test.make ~name:"scan is total over damaged logs" ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let logs = Lazy.force wal_logs in
      let rand = Random.State.make [| seed |] in
      let path = Filename.temp_file "critics-wal" ".log" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          List.for_all
            (fun k ->
              let rec chain s k = if k = 0 then s else chain (damage rand logs s) (k - 1) in
              let text = chain logs.(k mod 2) (1 + Random.State.int rand 3) in
              Util.Atomic_io.write path text;
              let n = String.length text in
              match Service.Wal.scan path with
              | Error _ ->
                n < String.length Service.Wal.header
                || String.sub text 0 (String.length Service.Wal.header)
                   <> Service.Wal.header
                || QCheck.Test.fail_reportf "Error on a log with its magic"
              | Ok s ->
                let at =
                  List.fold_left
                    (fun off r ->
                      let f = wal_frame r in
                      if off + String.length f <= n
                         && String.sub text off (String.length f) = f
                      then off + String.length f
                      else
                        QCheck.Test.fail_reportf
                          "record %d does not re-verify at byte %d" r.seq off)
                    (String.length Service.Wal.header)
                    s.records
                in
                (at = s.good_bytes
                 || QCheck.Test.fail_reportf "records end at %d, good_bytes %d"
                      at s.good_bytes)
                && (s.good_bytes + s.torn_bytes = n
                   || QCheck.Test.fail_reportf "%d + %d bytes of %d"
                        s.good_bytes s.torn_bytes n))
            (List.init 16 Fun.id)))

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                         *)

let test_checkpoint_roundtrip () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "ckpt.bin" in
  let reg = Registry.create () in
  Registry.add (Registry.counter reg "population/uploads") 7;
  Registry.observe (Registry.histogram reg "population/fanout") 12;
  let c =
    {
      Service.Checkpoint.seq = 42;
      ids = [ ("maps/u0001", 42); ("email/u0002", 41) ];
      registry = Registry.to_bytes reg;
    }
  in
  Service.Checkpoint.save path c;
  match Service.Checkpoint.load path with
  | Error msg -> Alcotest.fail msg
  | Ok None -> Alcotest.fail "checkpoint vanished"
  | Ok (Some c') ->
    Alcotest.(check int) "seq" 42 c'.Service.Checkpoint.seq;
    Alcotest.(check (list (pair string int)))
      "ids (sorted)"
      [ ("email/u0002", 41); ("maps/u0001", 42) ]
      c'.ids;
    Alcotest.(check string) "registry bytes" c.registry c'.registry

(* Ids are client-chosen arbitrary bytes.  The id table is
   length-framed, so ids containing newlines, colons, spaces or raw
   binary must round-trip — a '\n' id once made the loader fail and
   permanently wedged its shard directory. *)
let test_checkpoint_hostile_ids () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "ckpt.bin" in
  let ids =
    [ ("maps/u\n0001", 3); ("x:y z", 1); ("\n\n", 2); ("", 4); ("\x00\xff", 5) ]
  in
  Service.Checkpoint.save path
    { Service.Checkpoint.seq = 5; ids; registry = "" };
  match Service.Checkpoint.load path with
  | Error msg -> Alcotest.fail msg
  | Ok None -> Alcotest.fail "checkpoint vanished"
  | Ok (Some c) ->
    Alcotest.(check (list (pair string int)))
      "hostile ids round-trip (sorted)" (List.sort compare ids) c.ids

let test_checkpoint_corruption_is_loud () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "ckpt.bin" in
  Service.Checkpoint.save path
    { Service.Checkpoint.seq = 1; ids = [ ("x", 1) ]; registry = "" };
  let text = Util.Atomic_io.read_file path in
  let flipped = Bytes.of_string text in
  Bytes.set flipped (Bytes.length flipped - 1) '\255';
  Util.Atomic_io.write path (Bytes.to_string flipped);
  (match Service.Checkpoint.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "flipped byte accepted");
  Alcotest.(check bool)
    "missing file is Ok None" true
    (Service.Checkpoint.load (Filename.concat dir "nope") = Ok None)

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)

let ingest_exn eng ~id ~app ~payload =
  match Service.Engine.ingest eng ~id ~app ~payload with
  | Ok ack -> ack
  | Error msg -> Alcotest.fail msg

let test_engine_ingest_and_recover () =
  with_dir @@ fun dir ->
  let cfg = Service.Engine.config ~shards:2 ~checkpoint_every:3 dir in
  let eng, r0 = Service.Engine.open_ cfg in
  Alcotest.(check int) "fresh: nothing replayed" 0 r0.rec_replayed;
  for i = 1 to 10 do
    let ack =
      ingest_exn eng
        ~id:(Printf.sprintf "maps/u%04d" i)
        ~app:"maps"
        ~payload:(payload_of_counter "population/uploads" 1)
    in
    Alcotest.(check bool) "not a duplicate" false ack.ack_duplicate
  done;
  let bytes = Service.Engine.snapshot_bytes eng in
  Alcotest.(check int) "10 uploads" 10 (Service.Engine.uploads eng);
  Service.Engine.close eng;
  let eng2, r = Service.Engine.open_ cfg in
  Alcotest.(check int) "uploads survive" 10 r.rec_uploads;
  Alcotest.(check string)
    "state survives byte-for-byte" bytes
    (Service.Engine.snapshot_bytes eng2);
  Alcotest.(check bool)
    "mem finds an acked id" true
    (Service.Engine.mem eng2 ~id:"maps/u0007");
  let snap = Service.Engine.snapshot eng2 in
  Alcotest.(check int)
    "merge folded every delta" 10
    (Registry.counter_value (Registry.counter snap "population/uploads"));
  Service.Engine.close eng2

let test_engine_duplicate_acked_once () =
  with_dir @@ fun dir ->
  let cfg = Service.Engine.config ~shards:1 dir in
  let eng, _ = Service.Engine.open_ cfg in
  let payload = payload_of_counter "population/uploads" 1 in
  let a1 = ingest_exn eng ~id:"maps/u0001" ~app:"maps" ~payload in
  let a2 = ingest_exn eng ~id:"maps/u0001" ~app:"maps" ~payload in
  Alcotest.(check bool) "second is a duplicate" true a2.ack_duplicate;
  Alcotest.(check int) "same sequence" a1.ack_seq a2.ack_seq;
  Alcotest.(check int) "applied once" 1 (Service.Engine.uploads eng);
  Service.Engine.close eng;
  (* Dedup must survive a restart: the id table is durable state. *)
  let eng2, _ = Service.Engine.open_ cfg in
  let a3 = ingest_exn eng2 ~id:"maps/u0001" ~app:"maps" ~payload in
  Alcotest.(check bool) "duplicate across restart" true a3.ack_duplicate;
  Alcotest.(check int) "still applied once" 1 (Service.Engine.uploads eng2);
  Service.Engine.close eng2

let test_engine_rejects_garbage_payload () =
  with_dir @@ fun dir ->
  let eng, _ = Service.Engine.open_ (Service.Engine.config dir) in
  (match Service.Engine.ingest eng ~id:"x" ~app:"maps" ~payload:"not a registry" with
  | Ok _ -> Alcotest.fail "garbage acked"
  | Error _ -> ());
  Alcotest.(check int) "nothing applied" 0 (Service.Engine.uploads eng);
  Service.Engine.close eng

let test_engine_checkpoint_compacts_wal () =
  with_dir @@ fun dir ->
  let cfg = Service.Engine.config ~shards:1 ~checkpoint_every:1000 dir in
  let eng, _ = Service.Engine.open_ cfg in
  for i = 1 to 8 do
    ignore
      (ingest_exn eng
         ~id:(Printf.sprintf "maps/u%04d" i)
         ~app:"maps"
         ~payload:(payload_of_counter "population/uploads" 1))
  done;
  Service.Engine.checkpoint eng;
  Service.Engine.close eng;
  (* All eight records live in the checkpoint now; the WAL is empty, so
     recovery replays nothing yet reconstructs everything. *)
  let eng2, r = Service.Engine.open_ cfg in
  Alcotest.(check int) "nothing to replay" 0 r.rec_replayed;
  Alcotest.(check int) "everything recovered" 8 r.rec_uploads;
  Service.Engine.close eng2;
  match Service.Engine.fsck dir with
  | Error msg -> Alcotest.fail msg
  | Ok rep ->
    Alcotest.(check bool) "fsck strictly clean" true
      (Service.Engine.clean ~strict:true rep);
    Alcotest.(check int) "fsck sees the uploads" 8 rep.total_uploads

(* End-to-end regression: an id containing '\n' must survive the
   checkpoint/recover cycle — before the length-framed id parse, the
   first checkpoint holding such an id made the shard unopenable. *)
let test_engine_newline_id_recovers () =
  with_dir @@ fun dir ->
  let cfg = Service.Engine.config ~shards:1 dir in
  let hostile = "maps/u\n0001: x" in
  let payload = payload_of_counter "population/uploads" 1 in
  let eng, _ = Service.Engine.open_ cfg in
  ignore (ingest_exn eng ~id:hostile ~app:"maps" ~payload);
  Service.Engine.checkpoint eng;
  Service.Engine.close eng;
  let eng2, r = Service.Engine.open_ cfg in
  Alcotest.(check int) "upload survives checkpoint" 1 r.rec_uploads;
  Alcotest.(check bool) "hostile id found" true
    (Service.Engine.mem eng2 ~id:hostile);
  let a = ingest_exn eng2 ~id:hostile ~app:"maps" ~payload in
  Alcotest.(check bool) "still deduplicated" true a.ack_duplicate;
  Service.Engine.close eng2;
  match Service.Engine.fsck dir with
  | Error msg -> Alcotest.fail msg
  | Ok rep ->
    Alcotest.(check bool) "fsck strictly clean" true
      (Service.Engine.clean ~strict:true rep)

(* Oversized input is client-controlled: it must come back as [Error],
   and — the part that once failed — must not leave the shard mutex
   held, so the very next upload on the same shard still lands. *)
let test_engine_oversized_input_contained () =
  with_dir @@ fun dir ->
  let eng, _ =
    Service.Engine.open_ (Service.Engine.config ~shards:1 dir)
  in
  let payload = payload_of_counter "population/uploads" 1 in
  (match
     Service.Engine.ingest eng ~id:(String.make 70_000 'x') ~app:"maps"
       ~payload
   with
  | Ok _ -> Alcotest.fail "70kB id acked"
  | Error _ -> ());
  (match
     Service.Engine.ingest eng ~id:"big" ~app:"maps"
       ~payload:(String.make (16 * 1024 * 1024) 'p')
   with
  | Ok _ -> Alcotest.fail "16MiB payload acked"
  | Error _ -> ());
  let a = ingest_exn eng ~id:"maps/u0001" ~app:"maps" ~payload in
  Alcotest.(check bool) "shard still serves" false a.ack_duplicate;
  Alcotest.(check int) "only the valid upload applied" 1
    (Service.Engine.uploads eng);
  Service.Engine.close eng

(* The dedup retention contract: ids inside the window deduplicate,
   ids pruned out of it are applied as new, and the table stays
   bounded. *)
let test_engine_dedup_window () =
  with_dir @@ fun dir ->
  let cfg =
    Service.Engine.config ~shards:1 ~checkpoint_every:1000 ~dedup_window:4
      dir
  in
  let eng, _ = Service.Engine.open_ cfg in
  let payload = payload_of_counter "population/uploads" 1 in
  for i = 1 to 16 do
    let a =
      ingest_exn eng ~id:(Printf.sprintf "maps/u%02d" i) ~app:"maps" ~payload
    in
    Alcotest.(check bool) "fresh id is new" false a.ack_duplicate
  done;
  let recent = ingest_exn eng ~id:"maps/u16" ~app:"maps" ~payload in
  Alcotest.(check bool) "retry inside window deduplicates" true
    recent.ack_duplicate;
  let ancient = ingest_exn eng ~id:"maps/u01" ~app:"maps" ~payload in
  Alcotest.(check bool) "retry outside window re-applies" false
    ancient.ack_duplicate;
  Alcotest.(check bool) "table bounded by window + slack" true
    (Service.Engine.uploads eng <= 12);
  Service.Engine.close eng;
  (* The windowed table is what the checkpoint persists and recovery
     rebuilds. *)
  let eng2, _ = Service.Engine.open_ cfg in
  Alcotest.(check bool) "recent id survives restart" true
    (Service.Engine.mem eng2 ~id:"maps/u16");
  Alcotest.(check bool) "pruned id stays forgotten" false
    (Service.Engine.mem eng2 ~id:"maps/u02");
  Service.Engine.close eng2

(* Accepting an upload means it can be applied.  A payload that binds a
   name to another kind than the shard's aggregate holds once decoded,
   reached the WAL, and then raised out of the merge with the shard
   mutex held: later uploads to the shard blocked, and replay raised
   the same way, so the directory never opened again.  It is refused
   before the WAL now, and so is a first upload that binds the engine's
   own [service/uploads] to a gauge. *)
let test_engine_inapplicable_refused () =
  let gauge name = payload_of_gauge name 3 in
  let refused eng ~id payload =
    match Service.Engine.ingest eng ~id ~app:"maps" ~payload with
    | Ok _ -> Alcotest.failf "%s acked" id
    | Error _ -> ()
  in
  let rejects eng =
    Registry.counter_value
      (Registry.counter (Service.Engine.runtime eng) "service/rejects")
  in
  (with_dir @@ fun dir ->
   let cfg = Service.Engine.config ~shards:1 dir in
   let eng, _ = Service.Engine.open_ cfg in
   ignore (ingest_exn eng ~id:"u1" ~app:"maps" ~payload:(payload_of_counter "x" 1));
   refused eng ~id:"u2" (gauge "x");
   refused eng ~id:"u3" (gauge "service/uploads");
   Alcotest.(check int) "counted as rejects" 2 (rejects eng);
   let other =
     Domain.spawn (fun () ->
         Service.Engine.ingest eng ~id:"u4" ~app:"maps"
           ~payload:(payload_of_counter "x" 2))
   in
   (match Domain.join other with
   | Ok a -> Alcotest.(check bool) "another domain's upload lands" false a.ack_duplicate
   | Error msg -> Alcotest.fail msg);
   let state = Service.Engine.snapshot_bytes eng in
   Service.Engine.close eng;
   let eng, r = Service.Engine.open_ cfg in
   Alcotest.(check int) "reopens with the two uploads" 2 r.rec_uploads;
   Alcotest.(check string) "same state" state (Service.Engine.snapshot_bytes eng);
   Service.Engine.close eng);
  with_dir @@ fun dir ->
  let cfg = Service.Engine.config ~shards:1 dir in
  let eng, _ = Service.Engine.open_ cfg in
  refused eng ~id:"u1" (gauge "service/uploads");
  Alcotest.(check int) "nothing applied" 0 (Service.Engine.uploads eng);
  ignore (ingest_exn eng ~id:"u2" ~app:"maps" ~payload:(payload_of_counter "x" 1));
  Service.Engine.close eng;
  let eng, r = Service.Engine.open_ cfg in
  Alcotest.(check int) "reopens with the one upload" 1 r.rec_uploads;
  Service.Engine.close eng

let test_engine_shard_mismatch_is_loud () =
  with_dir @@ fun dir ->
  let eng, _ = Service.Engine.open_ (Service.Engine.config ~shards:2 dir) in
  Service.Engine.close eng;
  match Service.Engine.open_ (Service.Engine.config ~shards:3 dir) with
  | exception Failure _ -> ()
  | eng, _ ->
    Service.Engine.close eng;
    Alcotest.fail "resharding silently accepted"

(* [fsck] and [open_] read a shard through one replay, so they agree on
   what applies.  Each one-shard directory below is digest-valid, and
   fsck once called each clean while open_ refused it: for (1) with a
   [Failure], for (2) and (3) with an [Invalid_argument] out of the
   upload counter, bound as a gauge by the checkpoint or by a record
   above a checkpoint that lacks it. *)
let test_fsck_agrees_with_open () =
  let case what ?ckpt records =
    with_dir @@ fun dir ->
    let cfg = Service.Engine.config ~shards:1 dir in
    Service.Engine.close (fst (Service.Engine.open_ cfg));
    let sdir = Filename.concat dir "shard-000" in
    Option.iter (Service.Checkpoint.save (Filename.concat sdir "ckpt.bin")) ckpt;
    let w = Service.Wal.open_writer (Filename.concat sdir "wal.log") in
    List.iter
      (fun (seq, payload) ->
        Service.Wal.append w ~seq ~id:(Printf.sprintf "u%d" seq) ~payload)
      records;
    Service.Wal.close w;
    let fault =
      match Service.Engine.fsck dir with
      | Ok { Service.Engine.shard_reports = [ { fs_error = Some f; _ } ]; _ } -> f
      | Ok rep -> Alcotest.failf "%s: fsck says\n%s" what (Service.Engine.render rep)
      | Error msg -> Alcotest.failf "%s: fsck: %s" what msg
    in
    match Service.Engine.open_ cfg with
    | exception Failure msg ->
      if not (String.ends_with ~suffix:fault msg) then
        Alcotest.failf "%s: open_ failed with %S, fsck reports %S" what msg fault
    | exception e ->
      Alcotest.failf "%s: open_ raised %s" what (Printexc.to_string e)
    | eng, _ ->
      Service.Engine.close eng;
      Alcotest.failf "%s: open_ succeeded" what
  in
  let ckpt registry =
    { Service.Checkpoint.seq = 1; ids = [ ("u1", 1) ]; registry }
  in
  case "x rebound as a gauge"
    [ (1, payload_of_counter "x" 1); (2, payload_of_gauge "x" 3) ];
  case "uploads counted in a gauge"
    ~ckpt:(ckpt (payload_of_gauge "service/uploads" 1))
    [ (2, payload_of_counter "x" 1) ];
  case "no upload counter"
    ~ckpt:(ckpt (payload_of_counter "x" 1))
    [ (2, payload_of_gauge "service/uploads" 3) ]

(* The files of a healthy one-shard directory: a checkpoint, the WAL of
   the records above it, and the checkpoint as loaded; then a WAL above
   the same checkpoint whose first and last records the engine would
   refuse. *)
let shard_files =
  lazy
    (with_dir @@ fun dir ->
     let eng, _ =
       Service.Engine.open_
         (Service.Engine.config ~shards:1 ~checkpoint_every:1000 dir)
     in
     let send id payload = ignore (ingest_exn eng ~id ~app:"maps" ~payload) in
     send "u1" (payload_of_counter "x" 1);
     send "u2" (payload_of_gauge "g" 4);
     Service.Engine.checkpoint eng;
     send "u3" (payload_of_counter "x" 2);
     send "u1" (payload_of_counter "x" 5);
     send "u4" (payload_of_counter "service/uploads" 1);
     Service.Engine.close eng;
     let path name = Filename.concat dir ("shard-000/" ^ name) in
     let hostile = Filename.concat dir "hostile.log" in
     let w = Service.Wal.open_writer hostile in
     List.iter
       (fun (seq, payload) -> Service.Wal.append w ~seq ~id:"h" ~payload)
       [ (3, payload_of_gauge "service/uploads" 1);
         (4, payload_of_counter "y" 1); (5, payload_of_gauge "x" 1) ];
     Service.Wal.close w;
     let read = Util.Atomic_io.read_file in
     ( read (path "ckpt.bin"),
       Option.get (Result.get_ok (Service.Checkpoint.load (path "ckpt.bin"))),
       [| read (path "wal.log"); read hostile |] ))

(* Damaged shard directories.  The checkpoint is missing, intact, a
   damaged copy of its file ([Damage.variants]), or a digest-valid one
   at a nearby sequence number holding the registry or a damaged copy
   of it.  The WAL is one of the two above, damaged zero to two times
   as [prop_wal_scan_total] damages.  [fsck] must never raise, and must
   call a directory clean exactly when [open_] opens it, and strictly
   clean exactly when [open_] also finds no torn tail; [open_] raises
   only [Failure]; and the two count the same uploads. *)
let prop_fsck_total =
  QCheck.Test.make ~name:"fsck is total and agrees with open_" ~count:40
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let file, c, wals = Lazy.force shard_files in
      let logs = Array.append (Lazy.force wal_logs) wals in
      let rand = Random.State.make [| seed |] in
      let write text path = Util.Atomic_io.write path text in
      let save registry path =
        Service.Checkpoint.save path
          { c with seq = c.seq - 1 + Random.State.int rand 3; registry }
      in
      let ckpts =
        (fun _ -> ())
        :: write file
        :: List.map write (Damage.variants ~count:2 ~seed file)
        @ List.map save
            ([ c.registry; c.registry; c.registry ]
            @ Damage.variants ~count:3 ~seed c.registry)
      in
      List.for_all
        (fun write_ckpt ->
          with_dir @@ fun dir ->
          let cfg = Service.Engine.config ~shards:1 dir in
          Service.Engine.close (fst (Service.Engine.open_ cfg));
          let path name = Filename.concat dir ("shard-000/" ^ name) in
          write_ckpt (path "ckpt.bin");
          let rec chain s k =
            if k = 0 then s else chain (damage rand logs s) (k - 1)
          in
          write
            (chain wals.(Random.State.int rand 2) (Random.State.int rand 3))
            (path "wal.log");
          let rep =
            match Service.Engine.fsck dir with
            | exception e ->
              QCheck.Test.fail_reportf "fsck raised %s" (Printexc.to_string e)
            | Error msg -> QCheck.Test.fail_reportf "fsck: %s" msg
            | Ok rep -> rep
          in
          let opened =
            match Service.Engine.open_ cfg with
            | exception Failure _ -> None
            | exception e ->
              QCheck.Test.fail_reportf "open_ raised %s" (Printexc.to_string e)
            | eng, r ->
              Service.Engine.close eng;
              Some r
          in
          let fail what =
            QCheck.Test.fail_reportf "%s; open_ %s; fsck says\n%s" what
              (if opened = None then "failed" else "opened")
              (Service.Engine.render rep)
          in
          (Service.Engine.clean rep = (opened <> None) || fail "tolerant")
          && (Service.Engine.clean ~strict:true rep
              = (match opened with
                | Some r -> r.rec_torn_tails = 0
                | None -> false)
             || fail "strict")
          && ((match opened with
              | Some r -> r.rec_uploads = rep.total_uploads
              | None -> true)
             || fail "uploads"))
        ckpts)

(* The engine's checkpoints, byte for byte.  [Reference] is the path
   they were written by before the engine kept its id table in
   checkpoint order: fold the table into a list, sort it, encode it
   (copied verbatim).  The model is the engine's bookkeeping: the id
   table with its windowed prune, the aggregate, and when each shard
   checkpoints.  Random ingest sequences over hostile ids, with
   re-sends inside and outside the window, forced checkpoints and
   restarts, must leave every shard's checkpoint equal to the model's
   reference bytes. *)
module Reference = struct
  type t = { seq : int; ids : (string * int) list; registry : string }

  let magic = "CRTCKP01"

  let compare_id (a, x) (b, y) =
    let c = String.compare a b in
    if c <> 0 then c else Int.compare x y

  let body_of t =
    let buf =
      Buffer.create
        (64 + (24 * List.length t.ids) + String.length t.registry)
    in
    let field name v =
      Buffer.add_string buf name;
      Buffer.add_char buf ' ';
      Util.Decimal.add buf v;
      Buffer.add_char buf '\n'
    in
    field "seq" t.seq;
    field "ids" (List.length t.ids);
    List.iter
      (fun (id, seq) ->
        Util.Decimal.add buf (String.length id);
        Buffer.add_char buf ':';
        field id seq)
      (List.sort compare_id t.ids);
    field "registry" (String.length t.registry);
    Buffer.add_string buf t.registry;
    Buffer.contents buf

  let save t =
    let body = body_of t in
    let buf = Buffer.create (String.length body + 64) in
    Buffer.add_string buf magic;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (Digest.to_hex (Digest.string body));
    Buffer.add_char buf ' ';
    Util.Decimal.add buf (String.length body);
    Buffer.add_char buf '\n';
    Buffer.add_string buf body;
    Buffer.contents buf

  type shard = {
    ids : (string, int) Hashtbl.t;
    agg : Registry.t;
    mutable applied : int;
    mutable ckpt_seq : int;
    mutable since : int;
    mutable file : string option;
  }

  let shard () =
    { ids = Hashtbl.create 16; agg = Registry.create (); applied = 0;
      ckpt_seq = 0; since = 0; file = None }

  let checkpoint m =
    m.file <-
      Some
        (save
           {
             seq = m.applied;
             ids = Hashtbl.fold (fun id seq acc -> (id, seq) :: acc) m.ids [];
             registry = Registry.to_bytes m.agg;
           });
    m.ckpt_seq <- m.applied;
    m.since <- 0

  (* An upload the model applies; [None] for a duplicate. *)
  let apply m ~window ~every ~id payload =
    if Hashtbl.mem m.ids id then None
    else begin
      let seq = m.applied + 1 in
      Registry.merge_into ~into:m.agg
        (Result.get_ok (Registry.of_bytes payload));
      Registry.incr (Registry.counter m.agg "service/uploads");
      Hashtbl.replace m.ids id seq;
      if Hashtbl.length m.ids > window + max 8 (window / 8) then begin
        let stale =
          Hashtbl.fold
            (fun id s acc -> if s <= seq - window then id :: acc else acc)
            m.ids []
        in
        List.iter (Hashtbl.remove m.ids) stale
      end;
      m.applied <- seq;
      m.since <- m.since + 1;
      if m.since >= every then checkpoint m;
      Some seq
    end
end

let hostile_ids =
  [| ""; "\n"; ":"; " "; "a b"; "x:y z"; "\xff\xfe"; "a\nb"; "1:a 2\n";
     "\x00"; "maps/u1"; "maps/u2"; "maps/u3"; "email/u1"; "email/u2";
     "u10"; "u11"; "u12"; "u13"; "u14" |]

type ckpt_op = Send of int * int * int | Force | Restart

let gen_ckpt_case =
  QCheck.Gen.(
    let op =
      frequency
        [ (20, map3 (fun a i v -> Send (a, i, v)) (int_bound 2)
                 (int_bound (Array.length hostile_ids - 1)) (int_bound 9));
          (1, return Force);
          (1, return Restart) ]
    in
    quad (int_range 1 3) (int_range 1 24) (oneofl [ 1; 2; 3; 5; 8; 40 ])
      (list_size (int_bound 90) op))

let print_ckpt_case (shards, every, window, ops) =
  Printf.sprintf "shards %d, checkpoint_every %d, dedup_window %d: %s" shards
    every window
    (String.concat "; "
       (List.map
          (function
            | Send (a, i, v) -> Printf.sprintf "send app%d %S %d" a hostile_ids.(i) v
            | Force -> "checkpoint"
            | Restart -> "restart")
          ops))

let prop_checkpoint_bytes =
  QCheck.Test.make ~count:60 ~name:"engine files = fold-and-sort reference"
    (QCheck.make ~print:print_ckpt_case gen_ckpt_case)
    (fun (shards, every, window, ops) ->
      with_dir @@ fun dir ->
      let cfg =
        Service.Engine.config ~shards ~checkpoint_every:every
          ~dedup_window:window dir
      in
      let eng = ref (fst (Service.Engine.open_ cfg)) in
      let model = Array.init shards (fun _ -> Reference.shard ()) in
      let check what =
        Array.iteri
          (fun i (m : Reference.shard) ->
            let path =
              Filename.concat dir (Printf.sprintf "shard-%03d/ckpt.bin" i)
            in
            let got =
              if Sys.file_exists path then Some (Util.Atomic_io.read_file path)
              else None
            in
            if got <> m.file then
              QCheck.Test.fail_reportf "shard %d after %s: checkpoint differs" i
                what)
          model
      in
      List.iter
        (function
          | Send (a, i, v) ->
            let app = [| "maps"; "email"; "Music" |].(a) in
            let id = hostile_ids.(i) in
            let payload = payload_of_counter "population/uploads" v in
            let m = model.(Service.Engine.shard_of !eng ~app) in
            let want = Reference.apply m ~window ~every ~id payload in
            let ack = ingest_exn !eng ~id ~app ~payload in
            if ack.ack_duplicate <> (want = None) then
              QCheck.Test.fail_reportf "send %S: duplicate %b" id
                ack.ack_duplicate;
            check (Printf.sprintf "send %S" id)
          | Force ->
            Service.Engine.checkpoint !eng;
            Array.iter
              (fun (m : Reference.shard) ->
                if m.since > 0 || m.ckpt_seq < m.applied then
                  Reference.checkpoint m)
              model;
            check "a forced checkpoint"
          | Restart ->
            Service.Engine.close !eng;
            let e, r = Service.Engine.open_ cfg in
            eng := e;
            Array.iter
              (fun (m : Reference.shard) -> m.since <- m.applied - m.ckpt_seq)
              model;
            if r.rec_uploads
               <> Array.fold_left
                    (fun n (m : Reference.shard) -> n + Hashtbl.length m.ids)
                    0 model
            then QCheck.Test.fail_reportf "restart recovered %d ids" r.rec_uploads;
            check "a restart")
        ops;
      (* A last forced checkpoint covers everything still pending. *)
      Service.Engine.checkpoint !eng;
      Array.iter
        (fun (m : Reference.shard) ->
          if m.since > 0 || m.ckpt_seq < m.applied then Reference.checkpoint m)
        model;
      check "the last checkpoint";
      Service.Engine.close !eng;
      true)

(* ------------------------------------------------------------------ *)
(* Population                                                         *)

let test_population_deterministic () =
  let p = app "maps" in
  let u1 = Workload.Population.upload p ~user:3 in
  let u2 = Workload.Population.upload p ~user:3 in
  Alcotest.(check string) "same user, same payload" u1.payload u2.payload;
  Alcotest.(check string) "stable id" "Maps/u0003" u1.id;
  let u3 = Workload.Population.upload p ~user:4 in
  Alcotest.(check bool)
    "different users differ" true
    (u1.payload <> u3.payload);
  (match Registry.of_bytes u1.payload with
  | Error msg -> Alcotest.fail ("payload not a registry: " ^ msg)
  | Ok _ -> ());
  (* Jitter must always stay inside Profile.validate's envelope. *)
  for user = 0 to 99 do
    Workload.Profile.validate (Workload.Population.jitter p ~user)
  done

(* ------------------------------------------------------------------ *)
(* Byte identity of the persisted formats                             *)

(* Payloads are acknowledged into WALs and checkpoints, so their bytes
   are a format: these digests were recorded from the Printf encoders
   the in-place ones replaced.  Never re-record them. *)

let md5 s = Digest.to_hex (Digest.string s)

let test_payload_golden () =
  Alcotest.(check string)
    "Maps user 3" "721bfa90c161f5ac5c731ed9630cb66d"
    (md5 (Workload.Population.upload (app "Maps") ~user:3).payload);
  let all = Buffer.create (26 * 100 * 640) in
  List.iter
    (fun p ->
      for user = 0 to 99 do
        Buffer.add_string all (Workload.Population.upload p ~user).payload
      done)
    Workload.Apps.all;
  Alcotest.(check string)
    "26 apps x users 0-99" "088c4f15920dbc51fdbb137ce024d7d6"
    (md5 (Buffer.contents all))

let test_checkpoint_golden () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "ckpt.bin" in
  Service.Checkpoint.save path
    {
      Service.Checkpoint.seq = 9;
      ids =
        [ ("b", 3); ("a\nb", 1); ("a b", 2); ("a:b", 4); ("\xff", 5); ("a", 9);
          ("", 7); ("ab", 6); ("a", 8) ];
      registry = payload_of_counter "x" 5;
    };
  Alcotest.(check string)
    "checkpoint file" "3c1fe3c42e0f5c87bfb11338cd2c9dd9"
    (md5 (Util.Atomic_io.read_file path))

(* ------------------------------------------------------------------ *)
(* Chaos: abort at every IO index                                     *)

let small_uploads () =
  List.map
    (fun (u : Workload.Population.upload) ->
      { Service.Chaos.up_id = u.id; up_app = u.app; up_payload = u.payload })
    (Workload.Population.generate
       ~apps:[ app "maps"; app "email" ]
       ~users_per_app:3 ())

let test_chaos_sweep_full () =
  with_dir @@ fun dir ->
  let rep =
    Service.Chaos.sweep
      ~dir:(Filename.concat dir "chaos")
      ~shards:2 ~checkpoint_every:2 ~uploads:(small_uploads ()) ()
  in
  Alcotest.(check int)
    "every crash point exercised" rep.rep_ops
    (List.length rep.rep_cases);
  Alcotest.(check bool) "sweep hit real crashes" true (rep.rep_crashes > 0);
  Alcotest.(check bool)
    "sweep hit contained failures" true
    (rep.rep_contained > 0);
  if rep.rep_violations <> 0 then Alcotest.fail (Service.Chaos.render rep)

(* The qcheck angle: the contract must hold for arbitrary workload
   shapes, not just the hand-picked one — random app subsets, user
   counts and engine geometry, every crash point of each. *)
let chaos_qcheck =
  QCheck.Test.make ~count:6 ~name:"chaos sweep holds for arbitrary workloads"
    QCheck.(
      quad (int_range 1 3) (int_range 1 3) (int_range 1 3) (int_range 1 4))
    (fun (napps, users, shards, every) ->
      let apps =
        List.filteri (fun i _ -> i < napps) Workload.Apps.mobile
      in
      let uploads =
        List.map
          (fun (u : Workload.Population.upload) ->
            {
              Service.Chaos.up_id = u.id;
              up_app = u.app;
              up_payload = u.payload;
            })
          (Workload.Population.generate ~apps ~users_per_app:users ())
      in
      let dir = fresh_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let rep =
            Service.Chaos.sweep ~dir ~shards ~checkpoint_every:every
              ~max_cases:24 ~uploads ()
          in
          if rep.rep_violations <> 0 then
            QCheck.Test.fail_report (Service.Chaos.render rep);
          true))

(* Store.put under the same discipline: an abort at every IO index of
   an install must leave the store either without the entry (a plain
   miss) or with it intact — never with a corrupt visible entry. *)
let test_store_put_crash_points () =
  let k = Store.key ~kind:"chaos" [ "payload" ] in
  let payload = String.concat "/" (List.init 64 string_of_int) in
  (* Learn the op count from a fault-free install. *)
  let total =
    with_dir @@ fun dir ->
    let count = ref 0 in
    let inject ~op:_ =
      incr count;
      Util.Atomic_io.Proceed
    in
    let t = Store.open_dir ~inject dir in
    Store.add t k payload;
    Alcotest.(check bool) "fault-free install lands" true
      (Store.find t k <> None);
    !count
  in
  Alcotest.(check bool) "install has IO ops to abort" true (total > 0);
  for at = 0 to total - 1 do
    with_dir @@ fun dir ->
    let fired = ref false in
    let count = ref 0 in
    let inject ~op:_ =
      let n = !count in
      incr count;
      if n = at && not !fired then begin
        fired := true;
        if at mod 2 = 0 then Util.Atomic_io.Crash else Util.Atomic_io.Torn 5
      end
      else Util.Atomic_io.Proceed
    in
    let t = Store.open_dir ~inject dir in
    (try Store.add t k payload
     with Util.Atomic_io.Injected_crash _ -> ());
    (* The next process: orphan sweep, then lookup. *)
    let t2 = Store.open_dir dir in
    (match Store.find t2 k with
    | Some got ->
      Alcotest.(check string)
        (Printf.sprintf "crash point %d: visible entry is intact" at)
        payload got
    | None -> ());
    Alcotest.(check int)
      (Printf.sprintf "crash point %d: no corrupt visible state" at)
      0 (Store.stats t2).Store.corrupt
  done

let () =
  Alcotest.run "service"
    [
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_wal_torn_tail;
          Alcotest.test_case "corrupt record" `Quick
            test_wal_corrupt_record_stops_scan;
          Alcotest.test_case "bad magic" `Quick test_wal_bad_magic;
          QCheck_alcotest.to_alcotest prop_wal_scan_total;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "hostile ids" `Quick test_checkpoint_hostile_ids;
          Alcotest.test_case "corruption is loud" `Quick
            test_checkpoint_corruption_is_loud;
          QCheck_alcotest.to_alcotest prop_checkpoint_bytes;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ingest and recover" `Quick
            test_engine_ingest_and_recover;
          Alcotest.test_case "duplicate acked once" `Quick
            test_engine_duplicate_acked_once;
          Alcotest.test_case "rejects garbage" `Quick
            test_engine_rejects_garbage_payload;
          Alcotest.test_case "checkpoint compacts" `Quick
            test_engine_checkpoint_compacts_wal;
          Alcotest.test_case "newline id recovers" `Quick
            test_engine_newline_id_recovers;
          Alcotest.test_case "oversized input contained" `Quick
            test_engine_oversized_input_contained;
          Alcotest.test_case "dedup window" `Quick test_engine_dedup_window;
          Alcotest.test_case "shard mismatch" `Quick
            test_engine_shard_mismatch_is_loud;
          Alcotest.test_case "inapplicable payload refused" `Quick
            test_engine_inapplicable_refused;
          Alcotest.test_case "fsck agrees with open_" `Quick
            test_fsck_agrees_with_open;
          QCheck_alcotest.to_alcotest prop_fsck_total;
        ] );
      ( "population",
        [
          Alcotest.test_case "deterministic" `Quick
            test_population_deterministic;
        ] );
      ( "golden",
        [
          Alcotest.test_case "population payloads" `Quick test_payload_golden;
          Alcotest.test_case "checkpoint file" `Quick test_checkpoint_golden;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "abort at every IO index" `Slow
            test_chaos_sweep_full;
          QCheck_alcotest.to_alcotest chaos_qcheck;
          Alcotest.test_case "store put crash points" `Quick
            test_store_put_crash_points;
        ] );
    ]
