let format_version = "critics-store-1"

let code_version_memo = ref None

let code_version () =
  match !code_version_memo with
  | Some v -> v
  | None ->
    let v =
      try
        let ic =
          Unix.open_process_in "git describe --always --dirty 2>/dev/null"
        in
        let line = try input_line ic with End_of_file -> "" in
        ignore (Unix.close_process_in ic);
        if line = "" then "unknown" else line
      with _ -> "unknown"
    in
    code_version_memo := Some v;
    v

type t = {
  dir : string;
  (* Domains of one pool share a store, so a lost increment would skew
     the counts: every update is atomic. *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  writes : int Atomic.t;
  corrupt : int Atomic.t;
  quarantine_limit : int;
  inject : Util.Atomic_io.injector option;
}

let mkdir_p path =
  let rec go path =
    if not (Sys.file_exists path) then begin
      go (Filename.dirname path);
      try Unix.mkdir path 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path;
  if not (Sys.is_directory path) then
    raise (Sys_error (path ^ ": not a directory"))

let default_quarantine_limit = 32

let open_dir ?(quarantine_limit = default_quarantine_limit) ?inject dir =
  mkdir_p dir;
  ignore (Util.Atomic_io.sweep_tmp dir);
  Array.iter
    (fun name ->
      let sub = Filename.concat dir name in
      if Sys.is_directory sub then ignore (Util.Atomic_io.sweep_tmp sub))
    (Sys.readdir dir);
  {
    dir;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    writes = Atomic.make 0;
    corrupt = Atomic.make 0;
    quarantine_limit;
    inject;
  }

let open_default () =
  match Sys.getenv_opt "CRITICS_CACHE_DIR" with
  | None | Some "" -> None
  | Some dir -> Some (open_dir dir)

let dir t = t.dir

type key = { kind : string; digest : string (* hex *) }

(* Length-framed concatenation: no choice of part contents can make two
   distinct part lists serialize identically. *)
let key ?code_version:cv ~kind parts =
  if String.contains kind '/' then invalid_arg "Store.key: kind with '/'";
  let cv = match cv with Some v -> v | None -> code_version () in
  let buf = Buffer.create 256 in
  List.iter
    (fun part ->
      Buffer.add_string buf (string_of_int (String.length part));
      Buffer.add_char buf ':';
      Buffer.add_string buf part)
    (format_version :: cv :: kind :: parts);
  { kind; digest = Digest.to_hex (Digest.string (Buffer.contents buf)) }

let key_digest k = k.digest

let path_of t k = Filename.concat (Filename.concat t.dir k.kind) k.digest

(* Entry layout: one header line binding the payload to its key —
   "<format_version> <key-digest> <payload-md5> <payload-length>\n" —
   then the raw payload bytes. *)
let encode k payload =
  Printf.sprintf "%s %s %s %d\n%s" format_version k.digest
    (Digest.to_hex (Digest.string payload))
    (String.length payload) payload

let decode k text =
  match String.index_opt text '\n' with
  | None -> None
  | Some nl ->
    let header = String.sub text 0 nl in
    (match String.split_on_char ' ' header with
    | [ fmt; kd; pd; len ] ->
      let payload_pos = nl + 1 in
      (match int_of_string_opt len with
      | Some n
        when fmt = format_version && kd = k.digest
             && String.length text - payload_pos = n ->
        let payload = String.sub text payload_pos n in
        if Digest.to_hex (Digest.string payload) = pd then Some payload
        else None
      | _ -> None)
    | _ -> None)

(* Corrupt entries are evidence, not garbage: chaos- or crash-found
   corruption is moved aside into [<dir>/corrupt/] (bounded; oldest
   evicted) so it can be post-mortemed, instead of being deleted on
   sight.  The counters are untouched by the move — a corrupt entry is
   still one [corrupt] plus one [miss], exactly as before. *)
let quarantine_dirname = "corrupt"

let quarantine_dir t = Filename.concat t.dir quarantine_dirname

let quarantined t =
  let dir = quarantine_dir t in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.sort compare names;
    Array.to_list (Array.map (Filename.concat dir) names)

let quarantine t k =
  let dir = quarantine_dir t in
  try
    mkdir_p dir;
    Sys.rename (path_of t k) (Filename.concat dir (k.kind ^ "." ^ k.digest));
    (* Bound the morgue: evict oldest-first (mtime, then name) past the
       limit so a corruption storm cannot fill the disk. *)
    let entries =
      List.filter_map
        (fun path ->
          match Unix.stat path with
          | { Unix.st_mtime; _ } -> Some (st_mtime, path)
          | exception Unix.Unix_error _ -> None)
        (quarantined t)
    in
    let excess = List.length entries - t.quarantine_limit in
    if excess > 0 then
      List.sort compare entries
      |> List.filteri (fun i _ -> i < excess)
      |> List.iter (fun (_, path) ->
             try Sys.remove path with Sys_error _ -> ())
  with Sys_error _ | Unix.Unix_error _ ->
    (* Quarantine is best-effort; never let it mask the miss. *)
    (try Sys.remove (path_of t k) with Sys_error _ -> ())

let find t k =
  let path = path_of t k in
  match Util.Atomic_io.read_file path with
  | exception Sys_error _ ->
    Atomic.incr t.misses;
    None
  | text -> (
    match decode k text with
    | Some payload ->
      Atomic.incr t.hits;
      Some payload
    | None ->
      (* Truncation, corruption or collision: quarantine the entry and
         fall back to recompute — never a crash, never a wrong
         payload. *)
      Atomic.incr t.corrupt;
      Atomic.incr t.misses;
      quarantine t k;
      None)

let add t k payload =
  try
    mkdir_p (Filename.concat t.dir k.kind);
    (* Durable: an installed entry that evaporates on power loss is
       harmless (a future miss), but a *named, empty* entry is a
       guaranteed corrupt-count on every later run — pay the fsync. *)
    Util.Atomic_io.write ~durable:true ?inject:t.inject (path_of t k)
      (encode k payload);
    Atomic.incr t.writes
  with Sys_error _ | Unix.Unix_error _ -> ()

let memo t k compute =
  let recompute st =
    let v = compute () in
    add st k (Marshal.to_string v []);
    v
  in
  match t with
  | None -> compute ()
  | Some st -> (
    match find st k with
    | None -> recompute st
    | Some bytes -> (
      match Marshal.from_string bytes 0 with
      | v -> v
      | exception _ -> recompute st))

type stats = { hits : int; misses : int; writes : int; corrupt : int }

let stats (t : t) =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    writes = Atomic.get t.writes;
    corrupt = Atomic.get t.corrupt;
  }

let fold_entries t f init =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> init
  | kinds ->
    Array.fold_left
      (fun acc kind ->
        let sub = Filename.concat t.dir kind in
        (* The quarantine morgue is not part of the cache: its blobs
           are already-dead evidence and must not count as entries,
           bytes, or [clear] victims. *)
        if kind = quarantine_dirname || not (Sys.is_directory sub) then acc
        else
          Array.fold_left
            (fun acc name -> f acc (Filename.concat sub name))
            acc (Sys.readdir sub))
      init kinds

let entry_count t = fold_entries t (fun n _ -> n + 1) 0

let total_bytes t =
  fold_entries t
    (fun n path ->
      match Unix.stat path with
      | { Unix.st_size; _ } -> n + st_size
      | exception Unix.Unix_error _ -> n)
    0

let clear t =
  fold_entries t
    (fun n path ->
      match Sys.remove path with
      | () -> n + 1
      | exception Sys_error _ -> n)
    0

let publish (t : t) registry =
  let count name v =
    Telemetry.Registry.add (Telemetry.Registry.counter registry name) v
  in
  let s = stats t in
  count "store/hit" s.hits;
  count "store/miss" s.misses;
  count "store/write" s.writes;
  count "store/corrupt" s.corrupt;
  Telemetry.Registry.set_max
    (Telemetry.Registry.gauge registry "store/bytes")
    (total_bytes t)
