(** Pipeline configurations.

    [table_i] is the paper's baseline (a Google-Tablet-class core in
    GEM5); the named variants are the hardware mechanisms of Sec. IV-G
    that CritIC is compared against and combined with. *)

type issue_policy =
  | Oldest_first
      (** age-ordered select — the baseline scheduler *)
  | Critical_first
      (** BackendPrio [32,33]: predicted high-fanout instructions are
          selected for issue (and functional units) first *)

type t = {
  width : int;              (** fetch/decode/rename/issue/commit width *)
  fetch_bytes : int;        (** fetch-group bytes per cycle (one i-cache
                                access); 16 = four 32-bit words.  Each
                                instruction spends its encoded size in
                                program order, with no window
                                alignment. *)
  fetch_queue : int;        (** fetch-buffer entries *)
  decode_queue : int;
  rob : int;
  iq : int;                 (** issue-queue entries *)
  int_alus : int;
  mul_units : int;
  mem_ports : int;
  fp_units : int;
  branch_units : int;
  mispredict_penalty : int; (** front-end refill cycles after redirect *)
  cdp_decode_penalty : int; (** extra decode cycle on a CDP marker *)
  mem : Mem.Hierarchy.config;
  bpu : Bpu.Predictor.kind;
  issue_policy : issue_policy;
  critical_load_prefetch : bool;
      (** the single-instruction criticality baseline [18]: prefetch
          predicted-critical loads at fetch *)
  efetch : bool;
      (** the EFetch instruction prefetcher [71] *)
  wrong_path_fetch : bool;
      (** model wrong-path instruction fetch after a misprediction: the
          front end keeps streaming sequential lines through the i-cache
          until the branch resolves, polluting it (and warming it) the
          way real hardware does.  Off in Table I — trace-driven
          simulators usually omit it — and exercised by the fidelity
          ablation *)
  fanout_critical_threshold : int;
      (** fanout at which an instruction counts as critical, for both
          predictors and statistics.  The paper uses 8 on real traces;
          the synthetic streams' compressed fanout scale makes 4 the
          equivalent percentile (see DESIGN.md) *)
}

val table_i : t
(** Baseline configuration of Table I. *)

(* Hardware variants of Sec. IV-G, expressed as transformers so they
   compose (e.g. [all_hw] or "mechanism + CritIC"). *)

val with_2x_fd : t -> t
(** Double fetch/decode bandwidth and halve i-cache hit latency. *)

val with_4x_icache : t -> t
val with_efetch : t -> t
val with_perfect_branch : t -> t
val with_backend_prio : t -> t
val with_critical_load_prefetch : t -> t
val all_hw : t -> t
(** 4×i-cache + EFetch + PerfectBr + BackendPrio. *)

val describe : t -> (string * string) list
(** Key/value rendering for reports (Table I). *)
