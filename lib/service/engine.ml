module Registry = Telemetry.Registry

type config = {
  dir : string;
  shards : int;
  checkpoint_every : int;
  dedup_window : int;
}

let config ?(shards = 4) ?(checkpoint_every = 256) ?(dedup_window = 65536)
    dir =
  if shards < 1 then invalid_arg "Engine.config: shards must be >= 1";
  if checkpoint_every < 1 then
    invalid_arg "Engine.config: checkpoint_every must be >= 1";
  if dedup_window < 1 then
    invalid_arg "Engine.config: dedup_window must be >= 1";
  { dir; shards; checkpoint_every; dedup_window }

let meta_magic = "CRTSRV01"

(* A shard's durable state: what [replay] rebuilds from its directory
   and [ingest] advances. *)
type state = {
  mutable applied : int;  (* last applied sequence number *)
  mutable ckpt_seq : int;  (* sequence covered by the last checkpoint *)
  mutable since_ckpt : int;
  ids : (string, int) Hashtbl.t;  (* applied upload id -> seq *)
  (* [ids] in checkpoint order, as the last checkpoint wrote it.  The
     next checkpoint merges the two fields below into it, so the
     per-upload path stays one Hashtbl lookup and one cons. *)
  mutable table : Checkpoint.table;
  mutable fresh : (string * int) list;  (* applied since, newest first *)
  mutable pruned_to : int;  (* floor of the last prune since, or 0 *)
  agg : Registry.t;
}

type shard = {
  id : int;
  shard_dir : string;
  lock : Mutex.t;
  mutable wal : Wal.t;
  st : state;
}

type t = {
  cfg : config;
  shard_arr : shard array;
  inject : Util.Atomic_io.injector option;
  run : Registry.t;  (* operational counters, process lifetime *)
  run_lock : Mutex.t;
}

type recovery = {
  rec_replayed : int;
  rec_skipped : int;
  rec_truncated_bytes : int;
  rec_torn_tails : int;
  rec_uploads : int;
}

let shard_dirname i = Printf.sprintf "shard-%03d" i
let wal_path dir = Filename.concat dir "wal.log"
let ckpt_path dir = Filename.concat dir "ckpt.bin"
let meta_path dir = Filename.concat dir "META"

(* Stable shard choice: MD5 is deterministic across runs, hosts and
   OCaml versions, unlike Hashtbl.hash. *)
let shard_index ~shards app =
  let d = Digest.string app in
  let v =
    (Char.code d.[0] lsl 16) lor (Char.code d.[1] lsl 8) lor Char.code d.[2]
  in
  v mod shards

let meta_contents cfg =
  Printf.sprintf "%s\nshards %d\n" meta_magic cfg.shards

let load_meta path =
  match Util.Atomic_io.read_file path with
  | exception Sys_error _ -> Ok None
  | text -> (
    match String.split_on_char '\n' text with
    | [ magic; shards_line; "" ] when magic = meta_magic -> (
      match String.split_on_char ' ' shards_line with
      | [ "shards"; n ] -> (
        match int_of_string_opt n with
        | Some shards when shards >= 1 -> Ok (Some shards)
        | _ -> Error (path ^ ": bad shard count"))
      | _ -> Error (path ^ ": bad META line"))
    | _ -> Error (path ^ ": bad META magic"))

(* ------------------------------ apply ----------------------------- *)

(* Duplicate suppression is windowed: ids whose sequence number has
   fallen more than [window] behind the shard head are forgotten, which
   bounds both resident memory and checkpoint size no matter how many
   uploads the directory has ever ingested.  The slack batches removals
   (one O(table) sweep per ~window/8 inserts) so pruning is amortized
   O(1) per applied record.  Returns the floor it pruned to: every id
   at or below it is gone, every id above it stays; 0 if it did not
   prune.  The test subtracts rather than adds, so [window = max_int]
   never prunes. *)
let prune_ids ~window ~applied ids =
  if Hashtbl.length ids - window > max 8 (window / 8) then begin
    let floor = applied - window in
    let stale =
      Hashtbl.fold
        (fun id seq acc -> if seq <= floor then id :: acc else acc)
        ids []
    in
    List.iter (Hashtbl.remove ids) stale;
    floor
  end
  else 0

(* Whether a decoded delta applies to a shard's aggregate [agg], which
   has applied [applied] uploads; [Ok merge] applies it.  The engine
   counts uploads in [service/uploads], which a delta may carry too, as
   a counter: once the shard has applied an upload the aggregate holds
   that counter and the merger's kind check covers it, before then the
   delta is checked against [upload_count], which holds only it. *)
let upload_count =
  let r = Registry.create () in
  ignore (Registry.counter r "service/uploads");
  r

let merger ~agg ~applied reg =
  let merge = Registry.merger ~into:agg reg in
  if applied > 0 then merge
  else
    match Registry.merger ~into:upload_count reg with
    | Error _ as e -> e
    | Ok _ -> merge

(* One acknowledged upload's effect on a shard's state: [merge] is its
   delta's checked merge into [st.agg]. *)
let apply_record st ~window ~seq ~id merge =
  merge ();
  Registry.incr (Registry.counter st.agg "service/uploads");
  Hashtbl.replace st.ids id seq;
  st.fresh <- (id, seq) :: st.fresh;
  let floor = prune_ids ~window ~applied:seq st.ids in
  if floor > 0 then st.pruned_to <- floor;
  st.applied <- seq;
  st.since_ckpt <- st.since_ckpt + 1

(* ----------------------------- replay ----------------------------- *)

type replay = {
  state : state;
  ckpt : bool;  (* a checkpoint was loaded *)
  wal_records : int;
  stale : int;  (* records at or below the sequence already applied *)
  good_bytes : int;
  torn_bytes : int;
}

(* A shard directory's state: its checkpoint, then every WAL record
   above it decoded, checked by [merger] and applied by [apply_record],
   as [ingest] applied it.  A replayed record counts in [since_ckpt]
   like an ingested one, since it too lives only in the WAL, so the
   next checkpoint stays on schedule.  Reads only; [Error] names the
   first thing recovery cannot apply.  [window] is the dedup window
   the state prunes to. *)
let replay ~window sdir =
  let ( let* ) = Result.bind in
  let* ckpt =
    Result.map_error (( ^ ) "corrupt checkpoint: ")
      (Checkpoint.load (ckpt_path sdir))
  in
  let* seq, ids, reg =
    match ckpt with
    | None -> Ok (0, [], Registry.create ())
    | Some c -> (
      match Registry.of_bytes c.registry with
      | Ok reg -> Ok (c.seq, c.ids, reg)
      | Error msg -> Error ("checkpoint registry unparseable: " ^ msg))
  in
  (* [merger]'s [applied > 0] shortcut assumes that the aggregate then
     holds [service/uploads] as a counter, and [apply_record] that it
     never holds it as anything else. *)
  let* () =
    match List.assoc_opt "service/uploads" (Registry.snapshot reg) with
    | Some (Registry.Counter_v _) -> Ok ()
    | None when seq <= 0 -> Ok ()
    | _ -> Error "checkpoint registry has no service/uploads counter"
  in
  let st =
    {
      applied = seq;
      ckpt_seq = seq;
      since_ckpt = 0;
      ids = Hashtbl.create 256;
      table = Checkpoint.table ids;
      fresh = [];
      pruned_to = 0;
      agg = Registry.create ();
    }
  in
  Registry.merge_into ~into:st.agg reg;
  List.iter (fun (id, seq) -> Hashtbl.replace st.ids id seq) ids;
  let* scan = Wal.scan (wal_path sdir) in
  let rec go stale = function
    | [] ->
      Ok
        {
          state = st;
          ckpt = Option.is_some ckpt;
          wal_records = List.length scan.records;
          stale;
          good_bytes = scan.good_bytes;
          torn_bytes = scan.torn_bytes;
        }
    | { Wal.seq; _ } :: rest when seq <= st.applied -> go (stale + 1) rest
    | { Wal.seq; id; payload } :: rest -> (
      if seq > st.applied + 1 then
        Error
          (Printf.sprintf "sequence gap: record %d follows %d" seq st.applied)
      else
        match
          Result.bind (Registry.of_bytes payload)
            (merger ~agg:st.agg ~applied:st.applied)
        with
        | Error msg -> Error (Printf.sprintf "record %d: %s" seq msg)
        | Ok merge ->
          apply_record st ~window ~seq ~id merge;
          go stale rest)
  in
  go 0 scan.records

let open_shard ?inject ~dir ~window i =
  let sdir = Filename.concat dir (shard_dirname i) in
  Util.Atomic_io.mkdir_p sdir;
  ignore (Util.Atomic_io.sweep_tmp sdir);
  match replay ~window sdir with
  | Error msg -> failwith (Printf.sprintf "Engine: shard %d: %s" i msg)
  | Ok r ->
    if r.torn_bytes > 0 then Wal.truncate_to (wal_path sdir) r.good_bytes;
    let wal = Wal.open_writer ?inject (wal_path sdir) in
    ({ id = i; shard_dir = sdir; lock = Mutex.create (); wal; st = r.state }, r)

let open_ ?inject cfg =
  Util.Atomic_io.mkdir_p cfg.dir;
  (match load_meta (meta_path cfg.dir) with
  | Ok None ->
    Util.Atomic_io.write ~durable:true (meta_path cfg.dir) (meta_contents cfg)
  | Ok (Some shards) ->
    if shards <> cfg.shards then
      failwith
        (Printf.sprintf
           "Engine: %s was created with %d shards, reopened with %d — \
            resharding is not supported"
           cfg.dir shards cfg.shards)
  | Error msg -> failwith ("Engine: " ^ msg));
  let opened =
    Array.init cfg.shards
      (open_shard ?inject ~dir:cfg.dir ~window:cfg.dedup_window)
  in
  let sum f = Array.fold_left (fun n (_, r) -> n + f r) 0 opened in
  ( {
      cfg;
      shard_arr = Array.map fst opened;
      inject;
      run = Registry.create ();
      run_lock = Mutex.create ();
    },
    {
      rec_replayed = sum (fun r -> r.state.since_ckpt);
      rec_skipped = sum (fun r -> r.stale);
      rec_truncated_bytes = sum (fun r -> r.torn_bytes);
      rec_torn_tails = sum (fun r -> Bool.to_int (r.torn_bytes > 0));
      rec_uploads = sum (fun r -> Hashtbl.length r.state.ids);
    } )

(* ---------------------------- runtime ----------------------------- *)

let count t name =
  Mutex.lock t.run_lock;
  Registry.incr (Registry.counter t.run name);
  Mutex.unlock t.run_lock

let runtime t = t.run

(* --------------------------- checkpoint --------------------------- *)

(* Caller holds the shard lock.  Ordering is the crash-safety argument:
   (1) the checkpoint covering seq S is installed atomically+durably;
   (2) the WAL is rotated to empty.  A crash after (1) leaves a stale
   WAL whose records are all <= S — replay skips them by sequence
   number.  A crash during (2)'s tmp+rename leaves either log. *)
let checkpoint_locked t shard =
  (* Every id at or below the last prune's floor is gone from [ids], and
     every later one is above it: floors only rise. *)
  let st = shard.st in
  let table = Checkpoint.merge st.table ~applied:st.fresh ~floor:st.pruned_to in
  Checkpoint.save_table ?inject:t.inject (ckpt_path shard.shard_dir)
    ~seq:st.applied table ~registry:(Registry.to_bytes st.agg);
  st.table <- table;
  st.fresh <- [];
  st.pruned_to <- 0;
  st.ckpt_seq <- st.applied;
  st.since_ckpt <- 0;
  count t "service/checkpoints";
  Wal.close shard.wal;
  (try
     Util.Atomic_io.write ~durable:true ?inject:t.inject
       (wal_path shard.shard_dir) Wal.header
   with Unix.Unix_error _ | Sys_error _ ->
     (* Contained rotate failure: the old WAL (all records <= ckpt_seq,
        now stale) stays; replay will skip it.  Keep serving. *)
     count t "service/rotate_failures");
  shard.wal <- Wal.open_writer ?inject:t.inject (wal_path shard.shard_dir)

let maybe_checkpoint_locked t shard =
  if shard.st.since_ckpt >= t.cfg.checkpoint_every then
    try checkpoint_locked t shard
    with Unix.Unix_error _ | Sys_error _ ->
      (* Checkpoint failure is not data loss — the WAL has everything.
         Reset the countdown so we retry after another interval rather
         than on every upload. *)
      shard.st.since_ckpt <- 0;
      count t "service/checkpoint_failures"

(* ----------------------------- ingest ----------------------------- *)

let shard_of t ~app = shard_index ~shards:t.cfg.shards app

type ack = { ack_shard : int; ack_seq : int; ack_duplicate : bool }

let ingest t ~id ~app ~payload =
  (* Validate before locking: both limits are client-controlled, and
     Wal.append raises Invalid_argument past them — which must never
     happen with the shard mutex held.  The WAL likewise must only ever
     contain applicable records, so replay cannot fail on what ingest
     accepted. *)
  if String.length id > Wal.max_id_bytes then begin
    count t "service/rejects";
    Error
      (Printf.sprintf "invalid id: %d bytes exceeds %d" (String.length id)
         Wal.max_id_bytes)
  end
  else if 2 + String.length id + String.length payload > Wal.max_body then begin
    count t "service/rejects";
    Error
      (Printf.sprintf "oversized upload: record body exceeds %d bytes"
         Wal.max_body)
  end
  else
  match Registry.of_bytes payload with
  | Error msg ->
    count t "service/rejects";
    Error ("invalid payload: " ^ msg)
  | Ok payload_reg -> (
    let shard = t.shard_arr.(shard_of t ~app) in
    Mutex.lock shard.lock;
    match Hashtbl.find_opt shard.st.ids id with
    | Some seq ->
      Mutex.unlock shard.lock;
      count t "service/duplicates";
      Ok { ack_shard = shard.id; ack_seq = seq; ack_duplicate = true }
    | None -> (
      (* A delta that binds a name to another kind than the shard's
         aggregate holds would decode, append and then fail to merge,
         and replay likewise: refuse it before the WAL sees it. *)
      match merger ~agg:shard.st.agg ~applied:shard.st.applied payload_reg with
      | Error msg ->
        Mutex.unlock shard.lock;
        count t "service/rejects";
        Error ("inapplicable payload: " ^ msg)
      | Ok merge -> (
        let seq = shard.st.applied + 1 in
        match Wal.append shard.wal ~seq ~id ~payload with
        | exception (Util.Atomic_io.Injected_crash _ as e) ->
          (* Injected crash: simulated process death — do not release
             the lock or repair anything; the "process" is gone and
             recovery owns the state now. *)
          raise e
        | exception e ->
          (* Contained failure (ENOSPC and anything else the append can
             raise): Wal.append already truncated its partial tail, so
             unlock and refuse the ack — the shard must keep serving. *)
          Mutex.unlock shard.lock;
          count t "service/rejects";
          Error ("append failed: " ^ Printexc.to_string e)
        | () ->
          (* The record is durable: this is the acknowledgement point.
             Everything below re-derives from the WAL on recovery. *)
          apply_record shard.st ~window:t.cfg.dedup_window ~seq ~id merge;
          let r =
            { ack_shard = shard.id; ack_seq = seq; ack_duplicate = false }
          in
          maybe_checkpoint_locked t shard;
          Mutex.unlock shard.lock;
          count t "service/appends";
          Ok r)))

(* -------------------------- introspection ------------------------- *)

let with_shards t f =
  Array.iter (fun s -> Mutex.lock s.lock) t.shard_arr;
  Fun.protect
    ~finally:(fun () -> Array.iter (fun s -> Mutex.unlock s.lock) t.shard_arr)
    (fun () -> f t.shard_arr)

let uploads t =
  with_shards t (fun arr ->
      Array.fold_left (fun n s -> n + Hashtbl.length s.st.ids) 0 arr)

let mem t ~id =
  with_shards t (fun arr ->
      Array.exists (fun s -> Hashtbl.mem s.st.ids id) arr)

let snapshot t =
  let into = Registry.create () in
  with_shards t (fun arr ->
      Array.iter (fun s -> Registry.merge_into ~into s.st.agg) arr);
  into

let snapshot_bytes t = Registry.to_bytes (snapshot t)

let shard_seqs t =
  with_shards t (fun arr -> Array.map (fun s -> s.st.applied) arr)

let checkpoint t =
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock s.lock)
        (fun () ->
          if s.st.since_ckpt > 0 || s.st.ckpt_seq < s.st.applied then
            checkpoint_locked t s))
    t.shard_arr

let close t = Array.iter (fun s -> Wal.close s.wal) t.shard_arr

(* ------------------------------ fsck ------------------------------ *)

type shard_report = {
  fs_shard : int;
  fs_ckpt_seq : int;
  fs_wal_records : int;
  fs_stale : int;
  fs_uploads : int;
  fs_torn_bytes : int;
  fs_error : string option;
}

type report = {
  shards_checked : int;
  shard_reports : shard_report list;
  total_uploads : int;
  torn_tails : int;
  corrupt : int;
}

(* [replay] without the writes, and with a window that forgets no id. *)
let fsck_shard ~dir i =
  match replay ~window:max_int (Filename.concat dir (shard_dirname i)) with
  | Error msg ->
    { fs_shard = i; fs_ckpt_seq = -1; fs_wal_records = 0; fs_stale = 0;
      fs_uploads = 0; fs_torn_bytes = 0; fs_error = Some msg }
  | Ok r ->
    {
      fs_shard = i;
      fs_ckpt_seq = (if r.ckpt then r.state.ckpt_seq else -1);
      fs_wal_records = r.wal_records;
      fs_stale = r.stale;
      fs_uploads = Hashtbl.length r.state.ids;
      fs_torn_bytes = r.torn_bytes;
      fs_error = None;
    }

let fsck dir =
  if not (Sys.file_exists dir) then Error (dir ^ ": no such directory")
  else
    match load_meta (meta_path dir) with
    | Error msg -> Error msg
    | Ok None -> Error (dir ^ ": no META — not a service directory")
    | Ok (Some shards) ->
      let shard_reports = List.init shards (fsck_shard ~dir) in
      let sum f = List.fold_left (fun n r -> n + f r) 0 shard_reports in
      Ok
        {
          shards_checked = shards;
          shard_reports;
          total_uploads = sum (fun r -> r.fs_uploads);
          torn_tails = sum (fun r -> Bool.to_int (r.fs_torn_bytes > 0));
          corrupt = sum (fun r -> Bool.to_int (r.fs_error <> None));
        }

let clean ?(strict = false) r =
  r.corrupt = 0 && ((not strict) || r.torn_tails = 0)

let render r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%d shard(s), %d distinct upload(s)\n" r.shards_checked
       r.total_uploads);
  List.iter
    (fun s ->
      Buffer.add_string b
        (match s.fs_error with
        | Some msg -> Printf.sprintf "  shard %03d: CORRUPT: %s\n" s.fs_shard msg
        | None ->
          Printf.sprintf
            "  shard %03d: ckpt seq %d, wal records %d (%d stale), uploads \
             %d%s\n"
            s.fs_shard s.fs_ckpt_seq s.fs_wal_records s.fs_stale s.fs_uploads
            (if s.fs_torn_bytes > 0 then
               Printf.sprintf ", TORN TAIL %d bytes" s.fs_torn_bytes
             else "")))
    r.shard_reports;
  Buffer.add_string b
    (if clean ~strict:true r then "fsck: clean\n"
     else if clean r then
       Printf.sprintf
         "fsck: clean apart from %d torn tail(s) — unacknowledged bytes \
          from a crash mid-append; the next recovery repairs them\n"
         r.torn_tails
     else Printf.sprintf "fsck: %d shard(s) CORRUPT\n" r.corrupt);
  Buffer.contents b
