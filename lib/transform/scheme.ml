type t =
  | Baseline
  | Hoist
  | Critic
  | Critic_ideal
  | Critic_branches
  | Macro_ideal
  | Opp16
  | Compress
  | Opp16_critic
  | Narrow_only
  | Critic_reorder

let all =
  [ Baseline; Hoist; Critic; Critic_ideal; Critic_branches; Macro_ideal;
    Opp16; Compress; Opp16_critic; Narrow_only; Critic_reorder ]

let name = function
  | Baseline -> "baseline"
  | Hoist -> "hoist"
  | Critic -> "critic"
  | Critic_ideal -> "critic.ideal"
  | Critic_branches -> "critic.branches"
  | Macro_ideal -> "macro.ideal"
  | Opp16 -> "opp16"
  | Compress -> "compress"
  | Opp16_critic -> "opp16+critic"
  | Narrow_only -> "narrow.only"
  | Critic_reorder -> "critic.reorder"

let of_string s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun t -> name t = s) all

let describe = function
  | Baseline -> "unmodified program (Table I machine)"
  | Hoist -> "CritIC aggregation only, no 16-bit conversion"
  | Critic -> "CritIC: hoist + 16-bit Thumb behind a CDP switch (len <= 5)"
  | Critic_ideal -> "CritIC.Ideal: all chains, hypothetical encodings"
  | Critic_branches -> "Approach 1: format switch via branch instructions"
  | Macro_ideal ->
    "hypothetical macro-instruction ISA extension (one fetch per chain)"
  | Opp16 -> "opportunistic 16-bit conversion of runs >= 3"
  | Compress -> "fine-grained Thumb conversion (Krishnaswamy & Gupta)"
  | Opp16_critic -> "CritIC, then OPP16 on the remaining code"
  | Narrow_only ->
    "pass-list ablation: 16-bit conversion of CritICs without hoisting"
  | Critic_reorder ->
    "pass-list ablation: narrow-before-hoist ordering of the CritIC passes"

let pipeline t =
  let default = Pass.default_options in
  let critic =
    [ Chain_select.pass; Hoist.pass; Narrow_convert.pass; Cdp_insert.pass ]
  in
  match t with
  | Baseline -> (default, [])
  | Hoist ->
    ( { default with Pass.mode = Pass.Hoist_only },
      [ Chain_select.pass; Hoist.pass ] )
  | Critic -> (default, critic)
  | Critic_ideal -> (Pass.ideal_options, critic)
  | Critic_branches ->
    ( { default with Pass.mode = Pass.Branches },
      [ Chain_select.pass; Hoist.pass; Narrow_convert.pass; Branch_switch.pass ]
    )
  | Macro_ideal ->
    ( { Pass.max_len = max_int; mode = Pass.Fused_macro; ideal = false },
      [ Chain_select.pass; Hoist.pass; Macro_fuse.pass ] )
  | Opp16 -> (default, [ Thumb.opp16 ])
  | Compress -> (default, [ Thumb.compress ])
  | Opp16_critic -> (default, critic @ [ Thumb.opp16 ])
  | Narrow_only ->
    (default, [ Chain_select.pass; Narrow_convert.pass; Cdp_insert.pass ])
  | Critic_reorder ->
    ( default,
      [ Chain_select.pass; Narrow_convert.pass; Hoist.pass; Cdp_insert.pass ] )

let compile t db program =
  let options, passes = pipeline t in
  Pipeline.run (Pass.env ~options db) passes program
