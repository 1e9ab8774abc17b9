(** Opcode classes of the modelled ISA.

    The simulator does not interpret instruction semantics; it needs the
    *class* of each instruction to derive execution latency, functional
    unit, memory behaviour and Thumb-convertibility. *)

type t =
  | Alu        (** single-cycle integer op: add, sub, mov, cmp, logic *)
  | Alu_shift  (** integer op with register-specified shift *)
  | Mul        (** integer multiply *)
  | Div        (** integer divide *)
  | Load       (** memory read *)
  | Store      (** memory write *)
  | Branch     (** conditional or unconditional control transfer *)
  | Call       (** function call (branch-and-link) *)
  | Return     (** function return *)
  | Fp_add     (** floating add/sub/convert *)
  | Fp_mul     (** floating multiply *)
  | Fp_div     (** floating divide/sqrt *)
  | Cdp_switch (** the CDP co-processor mnemonic reused as the 16-bit
                   format-switch marker (Sec. IV-B of the paper) *)
  | Nop

val all : t list
(** Every class, in {!to_index} order. *)

val count : int
(** Number of classes. *)

val to_index : t -> int
(** The class's position in {!all}, in [0, count). *)

val of_index : int -> t
(** Inverse of {!to_index}.  Raises [Invalid_argument] outside
    [0, count). *)

val exec_latency : t -> int
(** Execution latency in cycles once issued, excluding memory time for
    [Load]/[Store] (that comes from the cache hierarchy). *)

val is_memory : t -> bool
val is_control : t -> bool

val is_long_latency : t -> bool
(** Latency strictly greater than 1 cycle — the paper's Fig. 3c
    classification of high- vs low-latency instructions. *)

val thumb_expressible : t -> bool
(** Whether the 16-bit format has an encoding for this opcode class at
    all.  Per the paper the limiting factors are predication and register
    pressure, so every ordinary class is expressible; [Cdp_switch] is the
    switch marker itself and never converted. *)

val unit_kind : t -> [ `Int_alu | `Int_mul | `Mem | `Branch | `Fp | `None ]
(** Functional-unit pool the class issues to. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
