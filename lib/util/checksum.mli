(** A 128-bit checksum for detecting damaged bytes, several times
    faster than MD5 on multi-megabyte inputs.  It is not cryptographic:
    it guards stored payloads against truncation, torn writes and
    flipped bits, not against an adversary.

    Two 64-bit lanes each take every little-endian 8-byte word of the
    input (the last 1-7 bytes as one zero-padded word) through a round
    that is invertible in both the lane and the word, so changing any
    single word, or any bit, always changes both lanes.  The length is
    mixed into each lane before an invertible final mix, so inputs that
    differ only by trailing zero bytes differ too.

    The value is part of every stored entry's format: a change to the
    function must come with a new [Store.format_version]. *)

val string : string -> string
(** The checksum of a string, as 32 lowercase hex digits. *)

val subbytes : Bytes.t -> int -> int -> string
(** [subbytes b pos len] is [string (Bytes.sub_string b pos len)],
    computed in place.  Raises [Invalid_argument] if [pos] and [len] do
    not name a range of [b]. *)
