(** Checksummed, sequence-numbered append-only write-ahead log.

    One WAL per shard of the profile-ingest service.  Every acknowledged
    upload is first appended here — length-framed, digest-per-record,
    sequence-numbered — and fsynced before the acknowledgement, so the
    ack is a durability promise: recovery replays the log over the last
    checkpoint and must find every acked record intact.

    Torn-tail discipline: a crash mid-append leaves a prefix of the
    final record.  {!scan} verifies records in order (frame bounds, then
    the per-record MD5 over sequence + id + payload) and treats the
    first bad byte as end-of-log; {!truncate_to} repairs the file to
    that point at recovery.  Records are never interpreted past a bad
    one — framing is lost there, and a record that fails its digest was
    by construction never acknowledged (the fsync happens after the full
    write) or is disk corruption that fsck must surface, not paper
    over.

    Record wire format, little-endian:
    [[4B body len][8B seq][16B MD5(seq_le ^ body)][body]] where
    [body = [2B id len][id bytes][payload bytes]]. *)

type t
(** An open writer handle (append mode). *)

val header : string
(** The 8-byte file magic ["CRTWAL01"]. *)

val max_id_bytes : int
(** Largest encodable client id (65535 — the 2-byte idlen field).
    [append] raises [Invalid_argument] past it; services must validate
    before calling. *)

val max_body : int
(** Largest encodable record body (idlen field + id + payload), 16 MiB.
    Same contract as {!max_id_bytes}. *)

val open_writer : ?inject:Util.Atomic_io.injector -> string -> t
(** Open the log for appending, creating it (with header, durably) if
    missing.  The caller must have repaired any torn tail first
    ({!scan} + {!truncate_to}); appending after garbage would orphan
    every subsequent record. *)

val append : t -> seq:int -> id:string -> payload:string -> unit
(** Durably append one record: one [wal.write] fault point for the
    bytes, one [wal.fsync] for the barrier.  On an ordinary I/O error
    (e.g. ENOSPC, injected or real) the partially-written tail is
    truncated away and the error re-raised as [Unix.Unix_error] — the
    log is exactly as before and the upload is {e not} acknowledged.
    An injected crash leaves the torn tail in place, as a real crash
    would. *)

val close : t -> unit
(** Close the fd (idempotent). *)

type record = { seq : int; id : string; payload : string }

type scan = {
  records : record list;  (** digest-valid records, in file order *)
  good_bytes : int;  (** offset of the first torn/corrupt byte *)
  torn_bytes : int;  (** bytes past [good_bytes] (0 = clean) *)
}

val scan : string -> (scan, string) result
(** Read and verify the whole log.  A missing file scans as empty and
    clean; a file without the magic header is an [Error]. *)

val truncate_to : string -> int -> unit
(** Repair: truncate the file to [good_bytes], discarding a torn tail.
    Raises [Unix.Unix_error] on failure. *)
