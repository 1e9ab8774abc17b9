(** The evaluation workloads of Table II: ten popular Play-Store apps
    plus the SPEC.int and SPEC.float members the paper compares against.

    Parameters are calibrated per suite so the generated streams show
    the paper's qualitative contrasts: mobile apps execute from a large,
    call-heavy code base with short, dense critical chains of low-latency
    instructions; SPEC codes run hot loops with isolated high-fanout
    loads, long-latency arithmetic and long loop-carried chains. *)

val mobile : Profile.t list
(** Acrobat, Angrybirds, Browser, Facebook, Email, Maps, Music, Office,
    PhotoGallery, Youtube. *)

val spec_int : Profile.t list
(** bzip2, hmmer, libquantum, mcf, gcc, gobmk, sjeng, h264ref. *)

val spec_float : Profile.t list
(** sperand, namd, gromacs, calculix, lbm, milc, dealII, leslie3d. *)

val all : Profile.t list

val find : string -> Profile.t option
(** Case-insensitive lookup by name. *)

val table_ii : unit -> string
(** Render Table II (apps and the activities performed). *)
