type t = {
  mutable events : Prog.Trace.event array;
  mutable lo : int;
  mutable size : int;
  mutable pred_off : int array;
  mutable preds : int array;
  mutable succ_off : int array;
  mutable succs : int array;
  mutable fanouts : int array;
}

let create () =
  {
    events = [||];
    lo = 0;
    size = 0;
    pred_off = [| 0 |];
    preds = [||];
    succ_off = [| 0 |];
    succs = [||];
    fanouts = [||];
  }

(* [a], or a larger copy of it holding at least [n] elements. *)
let grow a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Insert producer [w] into node [i]'s producer run, which occupies
   [preds.(pred_off.(i)) .. preds.(np - 1)]; keeps the run ascending and
   duplicate-free.  Returns the new end of the run. *)
let add_pred t i w np =
  let start = t.pred_off.(i) in
  let rec place k =
    if k > start && t.preds.(k - 1) > w then begin
      t.preds.(k) <- t.preds.(k - 1);
      place (k - 1)
    end
    else k
  in
  let rec present k = k < np && (t.preds.(k) = w || present (k + 1)) in
  if present start then np
  else begin
    t.preds <- grow t.preds (np + 1);
    t.preds.(place np) <- w;
    np + 1
  end

let load t ?(lo = 0) ?hi events =
  let hi = Option.value ~default:(Array.length events) hi in
  if lo < 0 || hi > Array.length events || lo > hi then
    invalid_arg "Dfg.load: bad window";
  let n = hi - lo in
  t.events <- events;
  t.lo <- lo;
  t.size <- n;
  t.pred_off <- grow t.pred_off (n + 1);
  t.succ_off <- grow t.succ_off (n + 1);
  t.fanouts <- grow t.fanouts n;
  Array.fill t.fanouts 0 n 0;
  (* Most recent in-window writer per architected register. *)
  let last_writer = Array.make Isa.Reg.count (-1) in
  let np = ref 0 in
  for i = 0 to n - 1 do
    let ins = events.(lo + i).Prog.Trace.instr in
    t.pred_off.(i) <- !np;
    List.iter
      (fun r ->
        let w = last_writer.(Isa.Reg.index r) in
        if w >= 0 then np := add_pred t i w !np)
      (Isa.Instr.regs_read ins);
    for k = t.pred_off.(i) to !np - 1 do
      let p = t.preds.(k) in
      t.fanouts.(p) <- t.fanouts.(p) + 1
    done;
    List.iter
      (fun r -> last_writer.(Isa.Reg.index r) <- i)
      (Isa.Instr.regs_written ins)
  done;
  t.pred_off.(n) <- !np;
  (* Consumers in CSR form.  [succ_off.(p)] starts at the end of [p]'s
     run and steps back once per consumer; visiting consumers last to
     first leaves every run ascending and [succ_off.(p)] at its start. *)
  t.succ_off.(n) <- !np;
  let total = ref 0 in
  for i = 0 to n - 1 do
    total := !total + t.fanouts.(i);
    t.succ_off.(i) <- !total
  done;
  t.succs <- grow t.succs !np;
  for i = n - 1 downto 0 do
    for k = t.pred_off.(i) to t.pred_off.(i + 1) - 1 do
      let p = t.preds.(k) in
      t.succ_off.(p) <- t.succ_off.(p) - 1;
      t.succs.(t.succ_off.(p)) <- i
    done
  done

let of_events ?lo ?hi events =
  let t = create () in
  load t ?lo ?hi events;
  t

let size t = t.size
let event t i = t.events.(t.lo + i)

let slice a lo hi = List.init (hi - lo) (fun k -> a.(lo + k))
let preds t i = slice t.preds t.pred_off.(i) t.pred_off.(i + 1)
let succs t i = slice t.succs t.succ_off.(i) t.succ_off.(i + 1)
let fanout t i = t.fanouts.(i)

let is_high_fanout ?(threshold = 8) t i = t.fanouts.(i) >= threshold

let roots t =
  List.filter (fun i -> t.pred_off.(i) = t.pred_off.(i + 1))
    (List.init t.size Fun.id)

let chain_gaps ?(threshold = 8) t =
  let h = Util.Dist.Histogram.create () in
  let n = t.size in
  let high i = t.fanouts.(i) >= threshold in
  (* Level-synchronous BFS of the forward slice of [start]: expand
     level by level through low-fanout nodes and stop at the first level
     holding a high-fanout node — its depth is the gap.  [seen] is
     stamped with [start], so it is never cleared. *)
  let seen = Array.make n (-1) and queue = Array.make n 0 in
  let nearest_gap start =
    let tail = ref 0 in
    let push_succs i =
      for k = t.succ_off.(i) to t.succ_off.(i + 1) - 1 do
        let s = t.succs.(k) in
        if seen.(s) <> start then begin
          seen.(s) <- start;
          queue.(!tail) <- s;
          incr tail
        end
      done
    in
    push_succs start;
    let rec level head gap =
      let stop = !tail in
      if head = stop then -1
      else begin
        let hit = ref false in
        for k = head to stop - 1 do
          if high queue.(k) then hit := true
        done;
        if !hit then gap
        else begin
          for k = head to stop - 1 do
            push_succs queue.(k)
          done;
          level stop (gap + 1)
        end
      end
    in
    level 0 0
  in
  for i = 0 to n - 1 do
    if high i then Util.Dist.Histogram.add h (nearest_gap i)
  done;
  h

let toposort t =
  (* RAW edges always point forward in the stream, so stream order is a
     valid topological order; verify the invariant while producing it. *)
  for i = 0 to t.size - 1 do
    for k = t.succ_off.(i) to t.succ_off.(i + 1) - 1 do
      if t.succs.(k) <= i then failwith "Dfg.toposort: backward edge"
    done
  done;
  List.init t.size Fun.id
