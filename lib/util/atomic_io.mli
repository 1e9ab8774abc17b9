(** Crash-safe file writes via the tmp+rename discipline.

    [write] serializes to [path ^ ".tmp"], flushes and closes, then
    renames over the target: a crash mid-write leaves the previous file
    (or nothing) plus a stray [.tmp] — never a truncated file a later
    reader would half-parse.  [sweep_tmp] is the matching startup
    cleanup for directories of atomically-written files.

    {2 Durability}

    Plain [write] is atomic with respect to concurrent readers but not
    to power loss: the rename can be journaled before the data blocks
    reach the disk, leaving a correctly-named empty or partial file
    after a crash.  [write ~durable:true] closes that window with the
    full fsync discipline — fsync the temp file before the rename and
    fsync the parent directory after it — which is what the ingest
    service's WAL rotation, checkpoints, profile-database saves and
    store installs use.

    {2 Fault injection}

    Every physical step of a durable write (and of the service WAL's
    appends) is a {e fault point}: a seeded chaos plan can make any one
    of them tear, fail with [ENOSPC], or "crash" the process
    (raise {!Injected_crash}, unwinding without cleanup exactly like a
    [kill -9] at that instant).  The seam is an optional [inject]
    callback consulted once per fault point; production code passes
    nothing and pays nothing. *)

type action =
  | Proceed  (** perform the operation normally *)
  | Crash  (** skip the operation and raise {!Injected_crash} *)
  | Torn of int
      (** for data writes: persist only the first [n] bytes, then raise
          {!Injected_crash} — a torn write.  Non-write operations treat
          it as [Crash]. *)
  | Fail of int
      (** for data writes: persist only the first [n] bytes, then raise
          [Unix.Unix_error (ENOSPC, _, _)] — a short write surfaced as
          an ordinary I/O error the caller must contain (no crash).
          Non-write operations raise the error without side effects. *)

type injector = op:string -> action
(** Consulted once per fault point with the operation's name
    ([aio.write], [aio.fsync], [aio.rename], [aio.fsync_dir],
    [wal.write], [wal.fsync]).  Stateful by construction: a chaos plan
    counts calls and fires at its chosen index. *)

exception Injected_crash of string
(** Raised at an injected crash point, carrying the operation name.
    Simulates the process dying there: no cleanup code between the
    fault point and the test harness's recovery path runs. *)

val with_injection : injector -> op:string -> (unit -> unit) -> unit
(** Run a non-write fault point: consult the injector (when any) and
    either run the thunk, raise {!Injected_crash}, or raise [ENOSPC].
    Exposed so other IO seams (the service WAL) share one protocol. *)

val injected_write :
  injector option -> op:string -> Unix.file_descr -> string -> unit
(** Write the whole string through the fault seam: [Torn]/[Fail]
    persist a prefix before raising; a genuinely short [Unix.write]
    loops.  Exposed for the service WAL. *)

val write : ?durable:bool -> ?inject:injector -> string -> string -> unit
(** [write path data] atomically replaces [path] with [data].
    [durable] (default [false]) adds the fsync discipline described
    above.  [inject] arms the fault seam (tests only). *)

val fsync_dir : ?inject:injector -> string -> unit
(** fsync a directory, making a completed rename inside it durable.
    Silently ignores filesystems that refuse directory fsync. *)

val read_file : string -> string
(** Whole-file read (binary).  Raises [Sys_error] if unreadable. *)

val mkdir_p : string -> unit
(** Create the directory and any missing parents (mode 0o755).  Raises
    [Sys_error] if the path exists and is not a directory. *)

val sweep_tmp : string -> int
(** Remove every [*.tmp] orphan left in the directory by interrupted
    {!write}s.  Returns the number removed; 0 for a missing directory.
    Only safe to call when no writer is concurrently mid-[write] in the
    directory (i.e. at startup/open time). *)
