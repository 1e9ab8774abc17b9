type kind = Fatal | Corrupt_input

type t = { kind : kind; msg : string }

exception Error of t

let fail kind msg = raise (Error { kind; msg })
let failf kind fmt = Printf.ksprintf (fail kind) fmt

let of_exn = function
  | Error e -> e
  | Failure msg -> { kind = Fatal; msg }
  | exn -> { kind = Fatal; msg = Printexc.to_string exn }

let kind_name = function Fatal -> "fatal" | Corrupt_input -> "corrupt-input"
let to_string e = "[" ^ kind_name e.kind ^ "] " ^ e.msg

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Err.Error " ^ to_string e)
    | _ -> None)
