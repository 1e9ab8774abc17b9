(** Versioned on-disk cache of prepared artifacts.

    Prepared app contexts and simulation results are deterministic
    functions of (app profile × configuration × code version), so
    recomputing them on every invocation is pure waste — the same "pay
    once, reuse across runs" opportunity the paper's caching analysis
    identifies in app content loads.  This store makes the recomputation
    skippable: callers serialize an artifact to bytes once, keyed by a
    fingerprint of everything the bytes depend on, and later runs load
    the bytes back instead of recomputing.  It is for artifacts that
    cost more to derive than to read back: transformed programs are
    cheaper to compile again, so they are not stored.

    Design rules, in order:

    - {b Wrong answers are impossible; stale answers are impossible.}
      A key digests the cache-format version, the code version (git
      describe), an artifact kind, and every caller-supplied input
      part.  Change any of them and the lookup misses.  Entries carry
      their key digest, a {!Util.Checksum} of the payload and the
      payload length in a header; every read re-verifies all three and
      treats any mismatch — truncated write, flipped bit, hash
      collision across kinds — as a miss (counted as [corrupt], the
      entry moved to [<dir>/corrupt/]), falling back to recompute.
    - {b Crash-safe.}  Writes go through {!Util.Atomic_io} (tmp +
      rename); [open_dir] sweeps stale [*.tmp] orphans.
    - {b Hermetic by default.}  Nothing touches the disk unless the
      caller opens a store; [open_default] only opens one when
      [CRITICS_CACHE_DIR] is set, so tests and default runs see no
      cross-run state.

    Layout: [<dir>/<kind>/<key-digest>], one file per entry. *)

type t

val format_version : string
(** Baked into every key; bump on any layout/serialization change. *)

val code_version : unit -> string
(** Hex MD5 of the running executable ([Sys.executable_name]), read
    once per process.  Baked into every key so rebuilt code never
    reuses stale artifacts, in a checkout or outside one (conservative:
    any rebuild that changes the binary invalidates). *)

val open_dir :
  ?quarantine_limit:int -> ?inject:Util.Atomic_io.injector -> string -> t
(** Open (creating if needed) a store rooted at the directory.  Sweeps
    stale [*.tmp] files.  Raises [Sys_error] if the directory cannot be
    created.  [quarantine_limit] (default 32) bounds the
    [<dir>/corrupt/] morgue corrupt entries are moved into.  [inject]
    arms the {!Util.Atomic_io} chaos fault seam on [add]'s installs
    (tests only). *)

val open_default : unit -> t option
(** [Some (open_dir dir)] when [CRITICS_CACHE_DIR] is set to a
    non-empty [dir], else [None]. *)

val dir : t -> string

type key

val key : ?code_version:string -> kind:string -> string list -> key
(** Fingerprint of an artifact: digests [format_version],
    [code_version] (default {!code_version}[ ()]), the [kind] and every
    part, length-framed so part boundaries can't alias.  [kind] names
    the entry's directory under the store root, so it must be a single
    path component that stays at that level and is not the quarantine
    directory: raises [Invalid_argument] for [""], ["."], [".."],
    ["corrupt"] and any kind containing ['/'].  The [?code_version]
    override exists for invalidation tests. *)

val key_digest : key -> string
(** Hex digest of the key — a stable content fingerprint callers can
    embed in further keys (e.g. a derived artifact keyed by the
    fingerprint of its input artifact). *)

val find : t -> key -> string option
(** A copy of the stored payload, or [None] on miss.  Corrupt or mismatched
    entries are quarantined into [<dir>/corrupt/] (bounded,
    oldest-evicted — see {!quarantined}), counted, and reported as
    misses — the caller recomputes and may [add] again. *)

val add : t -> key -> string -> unit
(** Store a payload under the key (atomically and durably: the entry is
    fsynced before the rename and the directory after; last writer
    wins).  I/O failures are swallowed: a read-only or full cache
    directory degrades to recompute-every-time, never to a crash. *)

val memo : t option -> key -> (unit -> 'a) -> 'a
(** [memo store k compute] is the single path for saving and reloading
    an artifact.  It reads the entry into a buffer its domain reuses,
    verifies it as {!find} does and unmarshals the payload in place, so
    a hit allocates only the value.  On a miss, or on a payload that
    verifies against its header but is not exactly one value [Marshal]
    can decode, it runs [compute], marshals the value and {!add}s it
    under [k].
    With [None] it just runs [compute].  Marshal is untyped: every key
    of one kind must be read back at the type it was written at. *)

(** {2 Introspection} *)

val quarantine_dir : t -> string
(** [<dir>/corrupt/], where corrupt entries are moved so
    chaos- or crash-found corruption stays post-mortem-able.  Bounded
    by the open-time [quarantine_limit]: past it the oldest (mtime,
    then name) quarantined file is evicted.  Quarantined files are not
    cache entries — {!entry_count}, {!total_bytes} and {!clear} ignore
    them. *)

val quarantined : t -> string list
(** Paths of the currently quarantined files, sorted by name. *)

type stats = { hits : int; misses : int; writes : int; corrupt : int }

val stats : t -> stats
(** Lookup counters since [open_dir]. *)

val entry_count : t -> int
(** Entries currently on disk (scans the directory). *)

val total_bytes : t -> int
(** Bytes currently on disk across all entries (scans the directory). *)

val clear : t -> int
(** Remove every entry; returns the number removed. *)

val publish : t -> Telemetry.Registry.t -> unit
(** Export [store/hit], [store/miss], [store/write], [store/corrupt]
    counters and the [store/bytes] gauge into a registry. *)
