let run (env : Pass.env) passes program =
  List.fold_left
    (fun (program, report) (p : Pass.t) ->
      let program', pr = p.Pass.apply env program in
      (program', Report.add report pr))
    (program, Report.zero) passes

let names passes = List.map (fun (p : Pass.t) -> p.Pass.name) passes
