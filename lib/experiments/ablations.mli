(** Ablations beyond the paper's figures, for the design choices the
    reproduction had to make (see DESIGN.md §4):

    - criticality threshold (the paper fixes 8 on its fanout scale; we
      sweep ours);
    - CDP decode penalty (the paper conservatively assumes 1 cycle);
    - issue-queue capacity;
    - fetch-queue depth. *)

type point = { label : string; speedup : float }

type result = {
  threshold : point list;       (** CritIC speedup per profiler threshold *)
  metric : point list;
      (** per chain-criticality metric — the paper's "higher order
          representations" future work (see {!Profiler.Metric}) *)
  cdp_penalty : point list;     (** per decode-penalty cycles *)
  iq_size : point list;         (** baseline IPC effect *)
  fetch_queue : point list;
  wrong_path : point list;
      (** trace-driven fidelity: effect of modelling wrong-path i-cache
          pollution after mispredictions *)
}

val jobs : unit -> Harness.job list
(** The prepared-database simulations [run] reads, for
    {!Harness.run_batch} prewarming ([run] batches the threshold and
    metric sweeps' database variants itself). *)

val run : Harness.t -> result
(** Over three representative mobile apps (Acrobat, Browser, Youtube),
    to bound runtime. *)

val render : result -> string
