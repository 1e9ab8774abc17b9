(** Sharded, crash-recoverable profile-aggregation engine.

    The long-lived successor to the paper's offline Spark aggregation:
    a population of synthetic users uploads per-app criticality
    profiles (serialized {!Telemetry.Registry} deltas) and the engine
    folds them into durable per-shard aggregates through the registry's
    commutative/associative merge.

    Durability contract, in order:

    - {b An acknowledgement is a promise.}  [ingest] returns [Ok] only
      after the upload's WAL record is written and fsynced.  Whatever
      happens next — crash mid-checkpoint, torn write, [kill -9] —
      recovery reconstructs a state containing that upload.
    - {b Replay is idempotent.}  Records are sequence-numbered; recovery
      loads the last checkpoint (sequence [S]) and applies only records
      with [seq > S], each exactly once.  Re-running recovery is a
      no-op.
    - {b Re-submission is idempotent — within the dedup window.}  Every
      upload carries a client id; a duplicate is acknowledged without
      being re-applied (the applied-id table is part of the checkpoint
      and the WAL records, so it survives recovery).  A client that
      crashed mid-upload can always just send again.  Retention is
      bounded: a shard remembers the ids of its most recent
      [dedup_window] applied uploads, so state and checkpoint size
      stay O(window) instead of growing with lifetime ingest.  A
      retry arriving more than [dedup_window] uploads late is applied
      as new — clients must retry promptly, not weeks later.
    - {b Torn tails are repaired, corruption is loud.}  A torn final
      WAL record (crash mid-append — by the ack contract, never
      acknowledged) is truncated at recovery and counted.  A corrupt
      checkpoint or a sequence gap is data loss: [open_] raises and
      {!fsck} reports it.

    Shards are independent (own WAL, checkpoint, mutex, aggregate);
    uploads hash to shards by app, so concurrent ingest from a domain
    pool contends only within an app's shard. *)

type config = {
  dir : string;
  shards : int;
  checkpoint_every : int;
      (** WAL records a shard accumulates before compacting into a
          checkpoint and rotating the log *)
  dedup_window : int;
      (** per-shard duplicate-suppression retention, in applied
          uploads: ids older than this many sequence numbers are
          forgotten (bounds memory and checkpoint size); see the
          re-submission contract above *)
}

val config :
  ?shards:int ->
  ?checkpoint_every:int ->
  ?dedup_window:int ->
  string ->
  config
(** Defaults: 4 shards, checkpoint every 256 records, dedup window
    65536.  Every write is durable: each acknowledged append, each
    checkpoint, the META file and each WAL rotation is fsynced. *)

type t

type recovery = {
  rec_replayed : int;  (** WAL records applied over checkpoints *)
  rec_skipped : int;  (** stale records ([seq <=] checkpoint) skipped *)
  rec_truncated_bytes : int;  (** torn-tail bytes repaired away *)
  rec_torn_tails : int;  (** shards that had a torn tail *)
  rec_uploads : int;  (** distinct uploads in the recovered state *)
}

val open_ : ?inject:Util.Atomic_io.injector -> config -> t * recovery
(** Open (creating or recovering) the engine rooted at [config.dir].
    Recovery is one replay per shard, the one {!fsck} runs: load the
    checkpoint, then decode, check and apply every WAL record above it
    as {!ingest} applied it; then truncate a torn tail and reopen the
    WAL.  Whatever the directory's bytes hold, the only exception is
    [Failure], naming the fault {!fsck} reports: a corrupt checkpoint,
    a checkpoint aggregate without its [service/uploads] counter, a
    sequence gap, a record that does not decode or apply, a bad or
    mismatched META.  Host I/O errors surface as [Unix.Unix_error] or
    [Sys_error].  [inject] arms the chaos fault seam on every
    subsequent IO (tests only). *)

type ack = { ack_shard : int; ack_seq : int; ack_duplicate : bool }

val ingest : t -> id:string -> app:string -> payload:string -> (ack, string) result
(** Durably ingest one upload.  [Error] — invalid payload (not a
    registry wire form), an inapplicable payload (it binds a name to
    another kind than the shard's aggregate holds, or binds
    [service/uploads], the engine's upload count, to anything but a
    counter), an id over
    {!Wal.max_id_bytes}, a record over {!Wal.max_body}, or a contained
    I/O failure like ENOSPC — means {e not acknowledged, not applied};
    the caller may retry with the same [id].  The WAL holds only
    records that apply, so replay cannot fail on what ingest
    acknowledged.  Oversized input is rejected before the shard lock is
    taken, so no client-controlled bytes can wedge a shard.
    Thread-safe; callers on a domain pool contend per shard.  Under
    chaos, {!Util.Atomic_io.Injected_crash} escapes — that upload's
    fate is decided by recovery. *)

val uploads : t -> int
(** Distinct uploads retained in the dedup window, over all shards
    (survives recovery).  Equals total uploads ever applied while that
    total is below [dedup_window] per shard. *)

val mem : t -> id:string -> bool
(** Is this upload id in the retained dedup window? *)

val snapshot : t -> Telemetry.Registry.t
(** Fresh merge of every shard's aggregate (the shards keep their own
    registries; the caller owns the result). *)

val snapshot_bytes : t -> string
(** [Telemetry.Registry.to_bytes] of {!snapshot} — a deterministic
    state fingerprint: byte-equal iff the aggregates are equal. *)

val shard_seqs : t -> int array
val shard_of : t -> app:string -> int

val checkpoint : t -> unit
(** Force-checkpoint every shard (normally they self-checkpoint every
    [checkpoint_every] records). *)

val runtime : t -> Telemetry.Registry.t
(** Process-lifetime operational counters (not durable):
    [service/appends], [service/duplicates], [service/rejects],
    [service/checkpoints], [service/checkpoint_failures],
    [service/rotate_failures]. *)

val close : t -> unit
(** Close every shard's WAL fd.  No flush is needed — acknowledged
    state is already durable; that is the whole point. *)

(** {2 fsck} *)

type shard_report = {
  fs_shard : int;
  fs_ckpt_seq : int;  (** -1 = no checkpoint *)
  fs_wal_records : int;
  fs_stale : int;  (** records at or below the checkpoint sequence *)
  fs_uploads : int;  (** distinct uploads visible in this shard *)
  fs_torn_bytes : int;
  fs_error : string option;
      (** the first thing recovery cannot apply; the counts above are
          then 0 (and [fs_ckpt_seq] -1) *)
}

type report = {
  shards_checked : int;
  shard_reports : shard_report list;
  total_uploads : int;
  torn_tails : int;
  corrupt : int;  (** shards with a hard error *)
}

val fsck : string -> (report, string) result
(** Read-only integrity check of a service directory: META, then
    {!open_}'s replay of every shard without its writes (no torn-tail
    repair) and without the dedup window (every id in the checkpoint
    and the WAL counts in [fs_uploads]).  So a shard is corrupt exactly
    when [open_] would fail on it, and [fsck] never raises on what the
    shard files hold.  Safe on a live or crashed directory. *)

val clean : ?strict:bool -> report -> bool
(** No corruption and no sequence gaps.  [strict] (default [false])
    additionally rejects torn tails — right after a recovery there must
    be none; right after a [kill -9] one is expected and will be
    repaired by the next [open_]. *)

val render : report -> string
