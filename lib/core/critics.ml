(** Public facade of the CritICs reproduction.

    - {!Scheme}: the code-generation schemes under evaluation, and the
      options and pass list that compile each;
    - {!Run}: end-to-end workload → profile → transform → simulate;
    - the substrate libraries re-exported for convenience.

    Quick start:
    {[
      let app = Option.get (Critics.Workload.Apps.find "Browser") in
      let ctx = Critics.Run.prepare app in
      let base = Critics.Run.stats ctx Critics.Scheme.Baseline in
      let crit = Critics.Run.stats ctx Critics.Scheme.Critic in
      Printf.printf "CritIC speedup: %s\n"
        (Critics.Util.Stats.pct (Critics.Run.speedup ~base crit))
    ]} *)

module Scheme = Transform.Scheme
module Run = Run

(* Substrates, re-exported so [critics] is the only library a client
   needs to depend on. *)
module Util = Util
module Isa = Isa
module Prog = Prog
module Mem = Mem
module Bpu = Bpu
module Dfg = Dfg
module Pipeline = Pipeline
module Workload = Workload
module Profiler = Profiler
module Transform = Transform
module Energy = Energy

let version = "1.0.0"
