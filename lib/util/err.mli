(** Classified errors: what failed, and whether the input was to blame.

    Decoders of persistent artifacts (the profile database) raise
    [Corrupt_input] naming the path and line they rejected; anything
    else a caller catches is [Fatal].  The bench reports a failed
    artifact as {!to_string} of {!of_exn}. *)

type kind =
  | Fatal  (** deterministic failure; retrying cannot help *)
  | Corrupt_input  (** malformed persistent artifact (profile DB, ...) *)

type t = { kind : kind; msg : string }

exception Error of t

val fail : kind -> string -> 'a
(** [raise (Error { kind; msg })]. *)

val failf : kind -> ('a, unit, string, 'b) format4 -> 'a
(** [fail] with a format string. *)

val of_exn : exn -> t
(** [Error e] passes through; [Failure msg] becomes [Fatal] with [msg];
    anything else becomes [Fatal] with the printed exception. *)

val kind_name : kind -> string
(** ["fatal"] or ["corrupt-input"]. *)

val to_string : t -> string
(** ["[kind] msg"]. *)
