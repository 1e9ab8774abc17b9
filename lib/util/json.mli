(** Minimal JSON tree, parser and deterministic printer.

    Enough for the repository's own emitters — bench results, the
    telemetry registry snapshot and the Chrome trace export — with no
    dependency on an external JSON package, so every validator binary
    runs anywhere the repo builds.  The printer is deterministic (object
    members keep their given order, numbers print via [%.17g] trimmed),
    which the byte-identical golden-trace tests rely on. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!parse} with a message naming the byte offset. *)

val parse : string -> t
(** Full recursive-descent parse; raises {!Parse_error} on malformed
    input or trailing garbage. *)

val to_string : t -> string
(** Compact deterministic rendering (no whitespace).  Integral numbers
    print without a fractional part, so a parse → print round trip of
    integer-only documents is a fixpoint. *)

val escape_string : string -> string
(** The string-literal body (no surrounding quotes) with quotes,
    backslashes and control characters escaped — shared with
    handwritten emitters. *)

val member : string -> t -> t option
(** Object field lookup; [None] for missing fields or non-objects. *)

val field : string -> t -> t
(** Like {!member} but raises [Failure] naming the field. *)

val num : t -> float
val int : t -> int
(** {!num} checked to be integral; raises [Failure] otherwise. *)

val str : t -> string
val arr : t -> t list
(** Coercions; raise [Failure] on a different constructor. *)
