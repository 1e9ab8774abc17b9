(** Thumb (16-bit) conversion passes.

    Both passes re-encode each qualifying run of a block to the 16-bit
    format, prefixing a CDP switch marker per {!Cdp_insert.span}
    instructions (the CDP's 3-bit argument covers at most l+1 = 9).
    They scan each block body once by index and return a block with no
    qualifying run unchanged.

    {!opp16} and {!compress} are the two criticality-agnostic schemes of
    Sec. V, as passes that ignore the profile: OPP16 converts any run
    of at least 3 consecutive convertible instructions without
    reordering anything; Compress models the fine-grained
    profile-guided Thumb conversion of Krishnaswamy & Gupta [78], which
    converts more aggressively (runs of at least 2).

    Report fields owned: [instrs_converted] and [cdp_inserted]. *)

val opp16 : Pass.t
(** Opportunistic conversion of every eligible run of 32-bit
    convertible instructions; already-converted (Thumb) instructions and
    CDP markers are left alone, so it composes after the CritIC
    passes. *)

val compress : Pass.t
(** The Compress baseline: {!opp16} with runs of at least 2. *)
