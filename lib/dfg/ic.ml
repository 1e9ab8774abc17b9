type t = { nodes : int list }

let length t = List.length t.nodes

module Iset = Set.Make (Int)

let is_ic dfg nodes =
  match nodes with
  | [] -> false
  | first :: _ ->
    Graph.preds dfg first = []
    && begin
      let rec check seen = function
        | [] -> true
        | n :: rest ->
          let preds = Graph.preds dfg n in
          let preds_ok = List.for_all (fun p -> Iset.mem p seen) preds in
          let connected =
            Iset.is_empty seen || List.exists (fun p -> Iset.mem p seen) preds
          in
          (* First node passes [connected] vacuously via empty seen. *)
          preds_ok && connected && check (Iset.add n seen) rest
      in
      check Iset.empty nodes
    end

let iter ?(max_paths = 4096) ?(max_len = 4096) (g : Graph.t) f =
  let n = g.size in
  let path = Array.make (max 1 (min n max_len)) 0 in
  let on_path = Bytes.make n '\000' in
  let count = ref 0 in
  (* Every producer of [s] is on the path, so [s] may extend it. *)
  let joins s =
    let rec all k =
      k >= g.pred_off.(s + 1)
      || (Bytes.get on_path g.preds.(k) <> '\000' && all (k + 1))
    in
    all g.pred_off.(s)
  in
  let rec extend last depth =
    if !count < max_paths then begin
      let extended = ref false in
      if depth < max_len then
        for k = g.succ_off.(last) to g.succ_off.(last + 1) - 1 do
          let s = g.succs.(k) in
          if joins s then begin
            extended := true;
            path.(depth) <- s;
            Bytes.set on_path s '\001';
            extend s (depth + 1);
            Bytes.set on_path s '\000'
          end
        done;
      if not !extended then begin
        incr count;
        f path depth
      end
    end
  in
  for r = 0 to n - 1 do
    if g.pred_off.(r) = g.pred_off.(r + 1) && !count < max_paths then begin
      path.(0) <- r;
      Bytes.set on_path r '\001';
      extend r 1;
      Bytes.set on_path r '\000'
    end
  done

let enumerate ?max_paths ?max_len dfg =
  let acc = ref [] in
  iter ?max_paths ?max_len dfg (fun path len ->
      acc := { nodes = List.init len (Array.get path) } :: !acc);
  List.rev !acc

let criticality dfg t =
  match t.nodes with
  | [] -> 0.0
  | nodes ->
    let total =
      List.fold_left (fun acc n -> acc + Graph.fanout dfg n) 0 nodes
    in
    float_of_int total /. float_of_int (List.length nodes)

let spread dfg t =
  match t.nodes with
  | [] -> 0
  | first :: _ ->
    let last = List.fold_left (fun _ n -> n) first t.nodes in
    (Graph.event dfg last).Prog.Trace.seq
    - (Graph.event dfg first).Prog.Trace.seq

let prefixes ?(min_len = 2) ?max_len t =
  let n = List.length t.nodes in
  let max_len = min n (Option.value ~default:n max_len) in
  let rec take k = function
    | [] -> []
    | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
  in
  let rec go k acc =
    if k > max_len then List.rev acc
    else go (k + 1) ({ nodes = take k t.nodes } :: acc)
  in
  if min_len > max_len then [] else go min_len []

let enumerate_greedy ?(max_len = 4096) dfg =
  let n = Graph.size dfg in
  List.map
    (fun root ->
      let members = ref (Iset.singleton root) in
      let rec grow len =
        if len >= max_len then ()
        else begin
          (* lowest-indexed eligible consumer of any member *)
          let candidate = ref None in
          for i = n - 1 downto 0 do
            if not (Iset.mem i !members) then begin
              let preds = Graph.preds dfg i in
              if
                preds <> []
                && List.for_all (fun p -> Iset.mem p !members) preds
              then candidate := Some i
            end
          done;
          match !candidate with
          | None -> ()
          | Some i ->
            members := Iset.add i !members;
            grow (len + 1)
        end
      in
      grow 1;
      { nodes = Iset.elements !members })
    (Graph.roots dfg)
