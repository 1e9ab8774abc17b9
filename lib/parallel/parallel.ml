(** Multicore fan-out for embarrassingly parallel experiment sweeps:
    the reusable domain pool. *)

module Pool = Pool

let default_jobs = Pool.default_jobs
