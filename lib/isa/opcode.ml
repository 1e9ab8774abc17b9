type t =
  | Alu
  | Alu_shift
  | Mul
  | Div
  | Load
  | Store
  | Branch
  | Call
  | Return
  | Fp_add
  | Fp_mul
  | Fp_div
  | Cdp_switch
  | Nop

let all =
  [ Alu; Alu_shift; Mul; Div; Load; Store; Branch; Call; Return;
    Fp_add; Fp_mul; Fp_div; Cdp_switch; Nop ]

let count = List.length all

let to_index = function
  | Alu -> 0
  | Alu_shift -> 1
  | Mul -> 2
  | Div -> 3
  | Load -> 4
  | Store -> 5
  | Branch -> 6
  | Call -> 7
  | Return -> 8
  | Fp_add -> 9
  | Fp_mul -> 10
  | Fp_div -> 11
  | Cdp_switch -> 12
  | Nop -> 13

let by_index = Array.of_list all

let of_index i =
  if i < 0 || i >= count then invalid_arg "Opcode.of_index: out of range";
  by_index.(i)

let exec_latency = function
  | Alu -> 1
  | Alu_shift -> 2
  | Mul -> 3
  | Div -> 12
  | Load -> 1 (* address generation; memory time added by the hierarchy *)
  | Store -> 1
  | Branch -> 1
  | Call -> 1
  | Return -> 1
  | Fp_add -> 3
  | Fp_mul -> 4
  | Fp_div -> 14
  | Cdp_switch -> 1
  | Nop -> 1

let is_memory = function Load | Store -> true | _ -> false
let is_control = function Branch | Call | Return -> true | _ -> false
let is_long_latency op = exec_latency op > 1

let thumb_expressible = function
  | Cdp_switch -> false
  | Alu | Alu_shift | Mul | Div | Load | Store | Branch | Call | Return
  | Fp_add | Fp_mul | Fp_div | Nop -> true

let unit_kind = function
  | Alu | Alu_shift -> `Int_alu
  | Mul | Div -> `Int_mul
  | Load | Store -> `Mem
  | Branch | Call | Return -> `Branch
  | Fp_add | Fp_mul | Fp_div -> `Fp
  | Cdp_switch | Nop -> `None

let to_string = function
  | Alu -> "alu"
  | Alu_shift -> "alu.sh"
  | Mul -> "mul"
  | Div -> "div"
  | Load -> "ldr"
  | Store -> "str"
  | Branch -> "b"
  | Call -> "bl"
  | Return -> "ret"
  | Fp_add -> "fadd"
  | Fp_mul -> "fmul"
  | Fp_div -> "fdiv"
  | Cdp_switch -> "cdp"
  | Nop -> "nop"

let pp fmt t = Format.pp_print_string fmt (to_string t)
let equal = ( = )
