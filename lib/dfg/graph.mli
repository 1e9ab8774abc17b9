(** Data-flow graphs over windows of the dynamic instruction stream.

    Nodes are dynamic instructions; edges are register RAW dependences
    (producer → consumer of the most recent write).  Fanout — the number
    of direct dependents — is the paper's criticality heuristic for
    individual instructions.

    A graph is one set of flat arrays in compressed-sparse-row form,
    built by {!load} into scratch space that the next {!load} reuses, so
    a profiler that walks window after window allocates no graph after
    its largest window.  The fields are exposed read-only for the
    kernels that walk them ({!Ic}, the profiler); everything else reads
    through the accessors below. *)

type t = private {
  mutable events : Prog.Trace.event array;
      (** the stream the window was cut from; node [i] is
          [events.(lo + i)] *)
  mutable lo : int;
  mutable size : int;  (** node count *)
  mutable pred_off : int array;
      (** producers of node [i] are [preds.(pred_off.(i))] ..
          [preds.(pred_off.(i + 1) - 1)], ascending and distinct *)
  mutable preds : int array;
  mutable succ_off : int array;
      (** consumers of node [i] are [succs.(succ_off.(i))] ..
          [succs.(succ_off.(i + 1) - 1)], ascending *)
  mutable succs : int array;
  mutable fanouts : int array;  (** [fanouts.(i)]: consumer count of [i] *)
}

val create : unit -> t
(** An empty graph, to be filled by {!load}. *)

val load : t -> ?lo:int -> ?hi:int -> Prog.Trace.event array -> unit
(** Rebuild [t] in place as the DFG of the half-open window [lo, hi) of
    the event stream (defaults: the whole array).  Synthetic control
    events participate (they read registers only through their sources,
    which is none, so they are isolated nodes), CDP markers are isolated
    nodes.  Node indices are window-relative. *)

val of_events : ?lo:int -> ?hi:int -> Prog.Trace.event array -> t
(** A fresh graph {!load}ed with the window. *)

val size : t -> int

val event : t -> int -> Prog.Trace.event

val preds : t -> int -> int list
(** Producers of a node's sources, ascending. *)

val succs : t -> int -> int list
(** Direct dependents, ascending (stream order). *)

val fanout : t -> int -> int
(** Out-degree of a node. *)

val is_high_fanout : ?threshold:int -> t -> int -> bool
(** Fanout at or above [threshold] (default 8). *)

val roots : t -> int list
(** Nodes without in-window producers, ascending. *)

val chain_gaps : ?threshold:int -> t -> Util.Dist.Histogram.t
(** The Fig. 1b analysis: walking forward dependence paths from each
    high-fanout node to the *nearest* dependent high-fanout node,
    histogram the number of low-fanout instructions strictly between
    them.  Value [-1] records high-fanout nodes whose entire forward
    slice contains no other high-fanout instruction (the "no dependent
    critical" category that dominates SPEC). *)

val toposort : t -> int list
(** Topological order of node indices; raises if the graph is cyclic
    (it never is for RAW edges over a linear stream). *)
