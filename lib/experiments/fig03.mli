(** Fig. 3 — where critical instructions spend their time.

    (a) Per-stage residency shares of high-fanout (critical)
    instructions, SPEC vs Android: the paper's observation is that the
    bottleneck shifts from execute/ROB (SPEC) to the front-end fetch
    stage (Android).

    (b) The fetch share split into F.StallForI (supply) and
    F.StallForR+D (drain against back-pressure).

    (c) Latency mix: the fraction of critical instructions that are
    long-latency (multi-cycle) operations — high in SPEC, low in
    Android. *)

type row = {
  suite : string;
  shares : (string * float) list;  (** per-stage shares, pipeline order *)
  fetch_i_share : float;
  fetch_rd_share : float;
  long_latency_fraction : float;
}

type result = row list

val critical_counts :
  is_long:(Isa.Instr.t -> bool) -> Prog.Trace.Stream.cursor -> int * int
(** [(critical, long)]: the stream's instructions with fanout at least 4
    (direct dependents, as {!Dfg.fanout} counts them over the whole
    stream), and how many of them [is_long] holds for.  One pass over
    the cursor in O(registers) space: no trace is materialized.
    Fig. 3c runs it on each app's Baseline stream ({!Critics.Run.stream}),
    counting as long-latency a long-latency opcode class, and a load when
    the profile's load working set exceeds 256 KB. *)

val run : Harness.t -> result
val render : result -> string
