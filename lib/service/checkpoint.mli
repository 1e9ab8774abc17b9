(** Compacted shard checkpoints.

    A checkpoint is the digest-verified serialization of a shard's
    aggregate state — last applied sequence number, the applied
    upload-id table (what makes re-submitted uploads idempotent across
    restarts) and the merged telemetry registry — written atomically
    and durably through {!Util.Atomic_io}.  After a checkpoint at
    sequence [S] the WAL is rotated; recovery loads the checkpoint and
    replays only records with [seq > S], so a crash anywhere between
    the two steps is harmless (stale records are skipped by sequence
    number: replay is idempotent).

    File layout: one header line
    ["CRTCKP01 <md5-of-body> <body-length>\n"] followed by the body —
    the same self-verifying frame discipline as the store. *)

type t = {
  seq : int;  (** last sequence number folded into this state *)
  ids : (string * int) list;  (** applied upload id → its sequence *)
  registry : string;  (** {!Telemetry.Registry.to_bytes} of the aggregate *)
}

val save : ?inject:Util.Atomic_io.injector -> string -> t -> unit
(** Atomic, durable write.  The id table is written sorted by id, then
    by sequence number, whatever the order of [ids].  Raises
    [Unix.Unix_error]/[Sys_error] on contained I/O failure (the
    previous checkpoint survives untouched) and propagates injected
    crashes. *)

type table
(** An id table in checkpoint order, held as the file holds it: what a
    checkpoint writes for it is one copy of its bytes. *)

val table : (string * int) list -> table
(** The table of these pairs, sorted by id, then by sequence number. *)

val merge : table -> applied:(string * int) list -> floor:int -> table
(** [merge t ~applied ~floor] is [t] updated: an id of [applied] takes
    the greatest sequence number it has there, in place of any it has in
    [t]; then, if [floor > 0], every pair at or below [floor] is
    dropped.  [t]'s ids must be distinct, and every sequence number in
    [applied] above every one in [t], as a shard applies them.  Only
    [applied] is sorted (O(k log k) for k pairs); [t] is scanned once,
    and its unchanged runs are copied whole. *)

val save_table :
  ?inject:Util.Atomic_io.injector ->
  string ->
  seq:int ->
  table ->
  registry:string ->
  unit
(** The one encoder: [save] of [{ seq; ids; registry }] is
    [save_table ~seq (table ids) ~registry], byte for byte.  The file
    is built in one buffer of its exact size and its body digested
    there.  Raises as [save]. *)

val load : string -> (t option, string) result
(** [Ok None] when the file does not exist (a young shard);
    [Error] on a digest, frame or parse violation — corruption of a
    checkpoint is data loss and must be loud. *)
