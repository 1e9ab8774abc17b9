(** Block-temperature profiles for temperature-aware i-cache
    replacement (the TRRIP policy, "A TRRIP Down Memory Lane").

    The profiler already knows which blocks dominate dynamic execution;
    this module exports that knowledge as one small integer per block —
    a {e temperature} in 0 (hot) .. 3 (cold) — which the pipeline
    threads into the memory hierarchy as the L1i replacement fill hint
    ({!Mem.Replacement.Trrip} maps it directly to the insertion RRPV).

    Temperatures are assigned by cumulative dynamic-instruction share
    over blocks ranked hottest first: the blocks forming the first 50%
    of dynamic instructions are hot (0), up to 80% warm (1), up to 95%
    cool (2), and the tail — including never-executed blocks — cold
    (3).  Ties rank by block id, so the profile is deterministic. *)

type t

val profile : num_blocks:int -> Prog.Trace.Stream.cursor -> t
(** Count dynamic instructions per block over the stream (one event =
    one instruction; events with out-of-range block ids are ignored)
    and derive temperatures. *)

val temperature : t -> int -> int
(** Temperature of a block id; 3 (cold) when out of range. *)

val temperatures : t -> int array
(** The full per-block table, indexed by block id — the shape
    {!Pipeline.Cpu.run_stream}'s [?itemp] expects.  The returned array
    is the profile's own; treat it as read-only. *)

val count : t -> int -> int
(** Dynamic instructions observed for a block id; 0 when out of
    range. *)
