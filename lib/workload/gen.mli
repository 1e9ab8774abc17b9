(** Synthetic program generation.

    [program p] realises a {!Profile.t} as a concrete {!Prog.Program.t}.
    Generation is deterministic in [p.seed].

    Register conventions (so the generated DFG structure is controlled
    rather than accidental):
    - r0: gap-link register of critical chains
    - r1/r2: chain spine registers (alternating)
    - r3: fanout-tree leaf scratch
    - r4: loop-carried accumulator (reserved; only used when
      [loop_carried] is set)
    - r5..r10: filler pool
    - r11/r12: "high" registers used to make selected instructions
      non-Thumb-convertible *)

val program : Profile.t -> Prog.Program.t
(** The program alone.  [Critics.Run.prepare] walks it, from the one
    seed formula, and [Critics.Run.stream] expands the walk. *)
