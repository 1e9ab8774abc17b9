type terminator =
  | Fallthrough of int
  | Cond_branch of { taken : int; not_taken : int; taken_bias : float }
  | Jump of int
  | Call of { callee : int; return_to : int }
  | Return

type t = {
  id : int;
  func : int;
  body : Isa.Instr.t array;
  term : terminator;
}

let make ~id ~func ~body ~term = { id; func; body; term }
let with_body body t = { t with body }

let size_bytes t =
  Array.fold_left (fun acc i -> acc + Isa.Instr.size_bytes i) 0 t.body

let successors t =
  match t.term with
  | Fallthrough b | Jump b -> [ b ]
  | Cond_branch { taken; not_taken; _ } -> [ taken; not_taken ]
  | Call { callee; return_to } -> [ callee; return_to ]
  | Return -> []
