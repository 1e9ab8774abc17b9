(** Decimal integers appended to a buffer without an intermediate
    string: the serve path's encoders write thousands of them per
    upload. *)

val add : Buffer.t -> int -> unit
(** [add buf v] appends exactly the bytes of [string_of_int v] (and of
    [Printf.sprintf "%d" v]), [min_int] included. *)

val width : int -> int
(** [String.length (string_of_int v)], without the string. *)

val put : Bytes.t -> int -> int -> int
(** [put b pos v] writes the bytes [add] appends at [pos] and returns
    the position after them.  Raises [Invalid_argument] if they do not
    fit. *)
