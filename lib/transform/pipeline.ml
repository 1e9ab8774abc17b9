type error = { failed_pass : string; detail : string }

type check =
  pass:string ->
  before:Prog.Program.t ->
  after:Prog.Program.t ->
  (unit, string) result

let run ?check (env : Pass.env) passes program =
  let rec go program report = function
    | [] -> Ok (program, report)
    | (p : Pass.t) :: rest -> (
      let program', pr = p.Pass.apply env program in
      let report = Report.add report pr in
      match check with
      | None -> go program' report rest
      | Some f -> (
        match f ~pass:p.Pass.name ~before:program ~after:program' with
        | Ok () -> go program' report rest
        | Error detail -> Error { failed_pass = p.Pass.name; detail }))
  in
  go program Report.zero passes

let run_exn env passes program =
  match run env passes program with
  | Ok r -> r
  | Error e ->
    failwith (Printf.sprintf "Pipeline.run_exn: [%s] %s" e.failed_pass e.detail)

let names passes = List.map (fun (p : Pass.t) -> p.Pass.name) passes
