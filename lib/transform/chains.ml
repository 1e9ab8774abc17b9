module I = Isa.Instr

type t = { id : int; len : int; positions : int list }

let in_block (block : Prog.Block.t) =
  let tbl : (int, int * int list ref) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  Array.iteri
    (fun i (ins : I.t) ->
      match ins.I.chain with
      | None -> ()
      | Some { I.chain_id; len; _ } -> (
        match Hashtbl.find_opt tbl chain_id with
        | None ->
          Hashtbl.add tbl chain_id (len, ref [ i ]);
          order := chain_id :: !order
        | Some (_, ps) -> ps := i :: !ps))
    block.Prog.Block.body;
  List.rev !order
  |> List.map (fun id ->
         let len, ps = Hashtbl.find tbl id in
         { id; len; positions = List.rev !ps })

let descending chains = List.rev chains

let runs c =
  let rec go current acc = function
    | [] -> List.rev (List.rev current :: acc)
    | p :: rest -> (
      match current with
      | prev :: _ when p = prev + 1 -> go (p :: current) acc rest
      | _ -> go [ p ] (List.rev current :: acc) rest)
  in
  match c.positions with [] -> [] | p :: rest -> go [ p ] [] rest

let splice body inserts =
  let n = Array.length body in
  let out = Array.make (n + List.length inserts) (I.cdp ~uid:0 ~following:1) in
  let j = ref 0 in
  let rem = ref inserts in
  let drain p =
    let continue = ref true in
    while !continue do
      match !rem with
      | (p', ins) :: tl when p' = p ->
        out.(!j) <- ins;
        incr j;
        rem := tl
      | _ -> continue := false
    done
  in
  for i = 0 to n - 1 do
    drain i;
    out.(!j) <- body.(i);
    incr j
  done;
  drain n;
  out

(* A run that fits one group is returned as it is: most runs do. *)
let rec chunk span = function
  | [] -> []
  | run when List.compare_length_with run span <= 0 -> [ run ]
  | run ->
    List.filteri (fun i _ -> i < span) run
    :: chunk span (List.filteri (fun i _ -> i >= span) run)
