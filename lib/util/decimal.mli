(** Decimal integers appended to a buffer without an intermediate
    string: the serve path's encoders write thousands of them per
    upload. *)

val add : Buffer.t -> int -> unit
(** [add buf v] appends exactly the bytes of [string_of_int v] (and of
    [Printf.sprintf "%d" v]), [min_int] included. *)
