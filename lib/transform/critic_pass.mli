(** The CritIC instrumentation pass (Sec. III-B / Fig. 9).

    For every profiled CritIC site the pass: (1) re-validates the chain
    against the current block and the hoist-legality rules; (2) checks
    the all-or-nothing Thumb-convertibility rule; (3) hoists the chain
    members back-to-back; and (4) re-encodes them in the 16-bit format
    behind a format switch.  Two switch mechanisms are modelled:

    - [Cdp] — the paper's proposal: a CDP marker announcing up to nine
      16-bit instructions (1 extra decode cycle, evaluated in
      Sec. IV-B);
    - [Branches] — Approach 1 (Sec. IV-A), usable on stock hardware: an
      explicit 32-bit branch before and a 16-bit branch after the chain,
      both always taken;
    - [Hoist_only] — the "Hoist" design point of Sec. IV-D: aggregation
      without format conversion;
    - [Fused_macro] — the ISA-extension alternative the paper rejects
      (Sec. III-B): each chain becomes a single hypothetical
      macro-instruction, so only its head costs fetch bytes.  An upper
      bound with no encoding constraints at all.

    Since the nanopass refactor this module is a thin wrapper: {!apply}
    assembles the canonical pass list for the options ({!Pipeline.canonical})
    and runs it.  The stage decomposition lives in {!Chain_select},
    {!Hoist}, {!Narrow_convert}, {!Cdp_insert}, {!Branch_switch} and
    {!Macro_fuse}; DESIGN.md §12 documents the pipeline contract. *)

type switch_mode = Pass.switch_mode = Cdp | Branches | Hoist_only | Fused_macro

type options = Pass.options = {
  max_len : int;   (** chain length cap; the paper's realistic CritIC
                       uses 5 *)
  mode : switch_mode;
  ideal : bool;    (** CritIC.Ideal: no length cap and hypothetical
                       16-bit encodings for every chain member *)
}

val default_options : options
(** [{ max_len = 5; mode = Cdp; ideal = false }] *)

val ideal_options : options

type report = Report.t = {
  sites_considered : int;
  sites_applied : int;
  rejected_stale : int;        (** program no longer matches the profile *)
  rejected_legality : int;     (** hoist would violate a dependence *)
  rejected_convertibility : int;  (** all-or-nothing Thumb rule *)
  instrs_hoisted : int;
  instrs_converted : int;
  cdp_inserted : int;
  switch_branches_inserted : int;
}

val apply :
  ?options:options ->
  Profiler.Critic_db.t ->
  Prog.Program.t ->
  Prog.Program.t * report
(** Apply the pass to a program (normally the one that was profiled).
    The CFG shape is preserved; only block bodies change.  Equivalent
    to [Pipeline.run_exn (Pass.env ~options db) (Pipeline.canonical
    options)] — and bit-identical, program and report, to the
    pre-refactor monolithic implementation, which [test/test_nanopass.ml]
    keeps as its reference. *)
