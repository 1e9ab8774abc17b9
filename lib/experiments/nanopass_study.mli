(** Nanopass ablation study (EXPERIMENTS.md, "pass-list ablations"):
    what each stage of the CritIC pipeline buys, measured end-to-end.

    The pass-list variants priced against each other:
    - [hoist]: chain-select + hoist only (the paper's Hoist bar);
    - [narrow.only]: chain-select + narrow-convert + cdp-insert — 16-bit
      conversion of CritICs with {e no} hoisting, a hybrid the paper
      never tried;
    - [critic.reorder]: narrow-before-hoist ordering — same final
      program as [critic] (the passes commute), priced end-to-end to
      demonstrate it;
    - [critic]: the full CritIC pass list.

    Each variant's passes come from {!Critics.Scheme.pipeline}.
    Alongside the speedups, the per-pass transform reports of Critic's
    pass list show where sites are rejected and what each stage
    actually edits. *)

type result = {
  apps : string list;
  speedups : (string * float list) list;
      (** scheme name, speedup over baseline per app in [apps] order *)
  pass_reports : (string * (string * Transform.Report.t) list) list;
      (** app, then (pass name, report) per stage of Critic's pass
          list in execution order *)
}

val schemes : Critics.Scheme.t list
(** The ablated pass-list variants, in increasing completeness:
    hoist, narrow.only, critic.reorder, critic. *)

val jobs : ?apps:Workload.Profile.t list -> unit -> Harness.job list
(** Every memoized simulation [run] needs (baseline + each variant per
    app), for {!Harness.run_batch} prewarming. *)

val run : ?apps:Workload.Profile.t list -> Harness.t -> result
(** Defaults to three representative mobile apps to bound runtime. *)

val render : result -> string
