let find_or_add lock ~find ~add compute =
  match Mutex.protect lock find with
  | Some v -> v
  | None ->
    let v = compute () in
    Mutex.protect lock (fun () ->
        match find () with
        | Some winner -> winner
        | None ->
          add v;
          v)
