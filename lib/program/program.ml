type t = {
  entry : int;
  blocks : Block.t array; (* indexed by block id *)
  addrs : int array;      (* start address per block id *)
  code_size : int;
  mutable muid : int;
      (* [max_uid], computed by [make] and carried by [update_blocks];
         [min_int] after a rewrite dropped the largest uid, until the
         next demand refolds it.  Every pass that draws fresh uids asks
         for it, so folding each time would scan the whole program per
         compile — also after a reload, where the value travels with
         the marshalled program. *)
}

let code_base = 0x10000

(* Blocks are laid out in id order (functions are built with
   consecutive block ids, so this keeps functions contiguous), every
   start word-aligned: a Thumb-shortened block must not let the next
   block begin mid-word.  [stride i b] is block [i]'s rounded size. *)
let layout stride blocks =
  let addrs = Array.make (Array.length blocks) 0 in
  let pc = ref code_base in
  Array.iteri
    (fun i b ->
      addrs.(i) <- !pc;
      pc := !pc + stride i b)
    blocks;
  (addrs, !pc - code_base)

let rounded_size b = (Block.size_bytes b + 3) land lnot 3

let body_max_uid acc (b : Block.t) =
  Array.fold_left
    (fun acc (i : Isa.Instr.t) -> if i.uid > acc then i.uid else acc)
    acc b.body

let make ~entry ~blocks =
  let n = List.length blocks in
  let arr = Array.make n None in
  List.iter
    (fun (b : Block.t) ->
      if b.id < 0 || b.id >= n then
        invalid_arg "Program.make: block ids must be dense in [0, n)";
      match arr.(b.id) with
      | Some _ -> invalid_arg "Program.make: duplicate block id"
      | None -> arr.(b.id) <- Some b)
    blocks;
  let blocks =
    Array.map
      (function
        | Some b -> b
        | None -> invalid_arg "Program.make: missing block id")
      arr
  in
  if entry < 0 || entry >= n then invalid_arg "Program.make: bad entry";
  Array.iter
    (fun b ->
      List.iter
        (fun s ->
          if s < 0 || s >= n then
            invalid_arg "Program.make: dangling successor")
        (Block.successors b))
    blocks;
  let addrs, code_size = layout (fun _ b -> rounded_size b) blocks in
  let muid = Array.fold_left body_max_uid (-1) blocks in
  { entry; blocks; addrs; code_size; muid }

let entry t = t.entry
let block t id = t.blocks.(id)
let blocks t = t.blocks
let num_blocks t = Array.length t.blocks
let block_addr t id = t.addrs.(id)
let code_size t = t.code_size

let instr_count t =
  Array.fold_left (fun acc b -> acc + Array.length b.Block.body) 0 t.blocks

let max_uid t =
  if t.muid = min_int then t.muid <- Array.fold_left body_max_uid (-1) t.blocks;
  t.muid

let update_blocks f ids t =
  let n = Array.length t.blocks and blocks = ref t.blocks in
  let old_max = max_uid t and lost_max = ref (-1) and new_max = ref (-1) in
  Array.iteri
    (fun k id ->
      if k > 0 && id <= ids.(k - 1) then
        invalid_arg "Program.update_blocks: ids must ascend";
      if id >= 0 && id < n then begin
        let b = t.blocks.(id) in
        let b' = f b in
        if b' != b then begin
          if b'.Block.id <> b.id || b'.Block.term <> b.term then
            invalid_arg "Program.map_blocks: pass must preserve CFG shape";
          if !blocks == t.blocks then blocks := Array.copy t.blocks;
          !blocks.(id) <- b';
          lost_max := body_max_uid !lost_max b;
          new_max := body_max_uid !new_max b'
        end
      end)
    ids;
  if !blocks == t.blocks then t
  else begin
    (* An untouched block keeps its stride, the distance between its
       start and the next: only the rewritten blocks are measured. *)
    let stride i b =
      if b != t.blocks.(i) then rounded_size b
      else if i + 1 < n then t.addrs.(i + 1) - t.addrs.(i)
      else code_base + t.code_size - t.addrs.(i)
    in
    let addrs, code_size = layout stride !blocks in
    let muid =
      if !new_max >= old_max || !lost_max < old_max then max !new_max old_max
      else min_int (* the largest uid went: [max_uid] folds again *)
    in
    { t with blocks = !blocks; addrs; code_size; muid }
  end

let map_blocks f t = update_blocks f (Array.init (num_blocks t) Fun.id) t

let iter_instrs f t =
  Array.iter (fun b -> Array.iter (f b) b.Block.body) t.blocks

let find_instr t uid =
  let found = ref None in
  (try
     Array.iter
       (fun (b : Block.t) ->
         Array.iteri
           (fun i (ins : Isa.Instr.t) ->
             if ins.uid = uid then begin
               found := Some (b, i);
               raise Exit
             end)
           b.body)
       t.blocks
   with Exit -> ());
  !found
