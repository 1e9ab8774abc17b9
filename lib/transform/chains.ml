module I = Isa.Instr

type t = { id : int; len : int; positions : int list }

(* Chains never interleave, so a chain is a maximal stretch of tags
   with one chain id: one scan, no table. *)
let in_block (block : Prog.Block.t) =
  let chains = ref [] in
  Array.iteri
    (fun i (ins : I.t) ->
      match (ins.I.chain, !chains) with
      | None, _ -> ()
      | Some tag, c :: cs when c.id = tag.I.chain_id ->
        chains := { c with positions = i :: c.positions } :: cs
      | Some tag, cs ->
        chains := { id = tag.I.chain_id; len = tag.I.len; positions = [ i ] } :: cs)
    block.Prog.Block.body;
  List.rev_map (fun c -> { c with positions = List.rev c.positions }) !chains

let rewrite_tagged f (block : Prog.Block.t) =
  let body = block.Prog.Block.body in
  let body' =
    Array.map
      (fun (ins : I.t) ->
        match ins.I.chain with None -> ins | Some tag -> f ins tag)
      body
  in
  if Array.for_all2 ( == ) body body' then block
  else Prog.Block.with_body body' block

let runs c =
  let rec go current acc = function
    | [] -> List.rev (List.rev current :: acc)
    | p :: rest -> (
      match current with
      | prev :: _ when p = prev + 1 -> go (p :: current) acc rest
      | _ -> go [ p ] (List.rev current :: acc) rest)
  in
  match c.positions with [] -> [] | p :: rest -> go [ p ] [] rest

(* Each insert goes in front of the body position it names; the list
   ascends, and same-position inserts keep their order. *)
let splice body inserts =
  let out = Array.make (Array.length body + List.length inserts) body.(0) in
  let j = ref 0 and from = ref 0 in
  let copy upto =
    Array.blit body !from out !j (upto - !from);
    j := !j + upto - !from;
    from := upto
  in
  List.iter
    (fun (p, ins) ->
      copy p;
      out.(!j) <- ins;
      incr j)
    inserts;
  copy (Array.length body);
  out

(* Markers draw their uids chain by chain from the highest (the
   monolithic pass's site order), runs ascending within a chain.
   Chains never interleave, so the lowest chain's inserts first are in
   ascending position order, and one splice places them all. *)
let mark_runs f (block : Prog.Block.t) =
  match in_block block with
  | [] -> block
  | chains ->
    let inserts =
      List.rev_map (fun c -> List.concat_map f (runs c)) (List.rev chains)
    in
    Prog.Block.with_body (splice block.body (List.concat inserts)) block

(* A run that fits one group is returned as it is: most runs do. *)
let rec chunk span = function
  | [] -> []
  | run when List.compare_length_with run span <= 0 -> [ run ]
  | run ->
    List.filteri (fun i _ -> i < span) run
    :: chunk span (List.filteri (fun i _ -> i >= span) run)
