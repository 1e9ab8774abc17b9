let format_version = "critics-store-2"

let code_version_memo = ref None

let code_version () =
  match !code_version_memo with
  | Some v -> v
  | None ->
    let v = Digest.to_hex (Digest.file Sys.executable_name) in
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

let default_quarantine_limit = 32

let open_dir ?(quarantine_limit = default_quarantine_limit) ?inject dir =
  Util.Atomic_io.mkdir_p dir;
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

(* Corrupt entries are evidence, not garbage: chaos- or crash-found
   corruption is moved aside into [<dir>/corrupt/] (bounded; oldest
   evicted) so it can be post-mortemed, instead of being deleted on
   sight.  The counters are untouched by the move — a corrupt entry is
   still one [corrupt] plus one [miss], exactly as before. *)
let quarantine_dirname = "corrupt"

(* Length-framed concatenation: no choice of part contents can make two
   distinct part lists serialize identically.  A kind names a directory
   of its own under the store root, so it may be no path that leaves
   that level ([""], ["."], [".."], anything with a ['/']) and not the
   morgue: [entry_count] and [clear] would never see such entries. *)
let key ?code_version:cv ~kind parts =
  if
    kind = "" || kind = "." || kind = ".." || kind = quarantine_dirname
    || String.contains kind '/'
  then invalid_arg (Printf.sprintf "Store.key: kind %S" kind);
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
   "<format_version> <key-digest> <payload-checksum> <payload-length>\n",
   the checksum being {!Util.Checksum}'s 32 hex digits — then the raw
   payload bytes. *)
let header k ~sum n =
  String.concat " " [ format_version; k.digest; sum; string_of_int n ] ^ "\n"

(* Payloads run to megabytes: copy each once, after its header. *)
let encode k payload =
  let n = String.length payload in
  let h = header k ~sum:(Util.Checksum.string payload) n in
  let hn = String.length h in
  let entry = Bytes.create (hn + n) in
  Bytes.blit_string h 0 entry 0 hn;
  Bytes.blit_string payload 0 entry hn n;
  Bytes.unsafe_to_string entry

(* The payload's offset when the first [len] bytes of [buf] are an entry
   whose header names [k], the payload's length and its checksum.
   Everything is checked in place; only the header is copied. *)
let verify k buf len =
  let sum_pos = String.length format_version + String.length k.digest + 2 in
  let len_pos = sum_pos + 33 (* 32 hex digits and a space *) in
  (* The length field ends within 20 bytes: 19 digits and a newline. *)
  let stop = min len (len_pos + 20) in
  let rec newline i =
    if i >= stop then None
    else if Bytes.get buf i = '\n' then Some (i + 1)
    else newline (i + 1)
  in
  match newline len_pos with
  | None -> None
  | Some pos ->
    let sum = Bytes.sub_string buf sum_pos 32 in
    let h = header k ~sum (len - pos) in
    if
      String.length h = pos
      && Bytes.sub_string buf 0 pos = h
      && Util.Checksum.subbytes buf pos (len - pos) = sum
    then Some pos
    else None

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
    Util.Atomic_io.mkdir_p dir;
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

(* Each domain reads entries into one buffer, grown to the largest
   entry it has read, so a hit allocates only what it returns.  Pool
   domains share a store, hence one per domain; a reader also takes the
   buffer out of its slot while it reads, so a second reader on the same
   domain (a systhread) reads into a fresh one instead. *)
let read_buffer = Domain.DLS.new_key (fun () -> ref Bytes.empty)

(* [Marshal] may read a 32-byte header at the payload's offset, however
   short the payload: keep that many bytes of room past any entry. *)
let room = 32

(* [with_entry path f] applies [f buf len] to the [len] bytes of the file
   at [path], read into [buf] (valid only during [f]).  Raises
   [Sys_error] when the file cannot be read. *)
let with_entry path f =
  let slot = Domain.DLS.get read_buffer in
  let buf = ref !slot in
  slot := Bytes.empty;
  Fun.protect
    ~finally:(fun () -> slot := !buf)
    (fun () ->
      In_channel.with_open_bin path (fun ic ->
          let n = in_channel_length ic in
          if Bytes.length !buf < n + room then buf := Bytes.create (n + room);
          (* A file cut short under the reader fails verification. *)
          let rec fill pos =
            if pos = n then pos
            else
              match In_channel.input ic !buf pos (n - pos) with
              | 0 -> pos
              | got -> fill (pos + got)
          in
          let len = fill 0 in
          f !buf len))

(* The one reader behind [find] and [memo]: [Some (decode buf pos n)]
   when the entry verifies, its payload being the [n] bytes at [pos] of
   [buf] (valid only during [decode]).  A missing entry is a miss; a
   corrupt one — truncation, corruption or collision — is quarantined
   and counted, and is a miss too: the caller recomputes, never crashes
   and never sees a wrong payload. *)
let read t k decode =
  match
    with_entry (path_of t k) (fun buf len ->
        Option.map (fun pos -> decode buf pos (len - pos)) (verify k buf len))
  with
  | exception Sys_error _ ->
    Atomic.incr t.misses;
    None
  | Some _ as hit ->
    Atomic.incr t.hits;
    hit
  | None ->
    Atomic.incr t.corrupt;
    Atomic.incr t.misses;
    quarantine t k;
    None

let find t k = read t k Bytes.sub_string

let add t k payload =
  try
    Util.Atomic_io.mkdir_p (Filename.concat t.dir k.kind);
    (* Durable: an installed entry that evaporates on power loss is
       harmless (a future miss), but a *named, empty* entry is a
       guaranteed corrupt-count on every later run — pay the fsync. *)
    Util.Atomic_io.write ~durable:true ?inject:t.inject (path_of t k)
      (encode k payload);
    Atomic.incr t.writes
  with Sys_error _ | Unix.Unix_error _ -> ()

(* A verified payload that is not exactly one marshalled value (other
   bytes stored under the key) decodes to [None].  [Marshal] reads
   neither past the payload nor what a longer entry left in the
   buffer. *)
let unmarshal buf pos n =
  match Marshal.total_size buf pos = n with
  | true -> ( try Some (Marshal.from_bytes buf pos) with _ -> None)
  | false | (exception _) -> None

let memo t k compute =
  let recompute st =
    let v = compute () in
    add st k (Marshal.to_string v []);
    v
  in
  match t with
  | None -> compute ()
  | Some st -> (
    match read st k unmarshal with
    | Some (Some v) -> v
    | None | Some None -> recompute st)

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
