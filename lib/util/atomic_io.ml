type action = Proceed | Crash | Torn of int | Fail of int

type injector = op:string -> action

exception Injected_crash of string

let enospc op = raise (Unix.Unix_error (Unix.ENOSPC, op, ""))

let with_injection inject ~op thunk =
  match inject ~op with
  | Proceed -> thunk ()
  | Crash | Torn _ -> raise (Injected_crash op)
  | Fail _ -> enospc op

let opt_injection inject ~op thunk =
  match inject with
  | None -> thunk ()
  | Some inject -> with_injection inject ~op thunk

(* Unix.write can legitimately write fewer bytes than asked; loop.  The
   injected [Torn]/[Fail] actions persist a prefix first so recovery
   code faces exactly what a mid-write crash leaves behind. *)
let write_all fd data pos len =
  let written = ref 0 in
  while !written < len do
    written :=
      !written
      + Unix.write_substring fd data (pos + !written) (len - !written)
  done

let injected_write inject ~op fd data =
  let len = String.length data in
  match inject with
  | None -> write_all fd data 0 len
  | Some inject -> (
    match inject ~op with
    | Proceed -> write_all fd data 0 len
    | Crash -> raise (Injected_crash op)
    | Torn n ->
      write_all fd data 0 (max 0 (min n len));
      raise (Injected_crash op)
    | Fail n ->
      write_all fd data 0 (max 0 (min n len));
      enospc op)

let fsync_dir ?inject dir =
  opt_injection inject ~op:"aio.fsync_dir" (fun () ->
      match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
      | exception Unix.Unix_error _ -> ()
      | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            (* Some filesystems (and all of them on some platforms)
               refuse to fsync a directory fd; the rename is still
               atomic, just not power-loss-durable there. *)
            try Unix.fsync fd with Unix.Unix_error _ -> ()))

let write ?(durable = false) ?inject path data =
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (try
     injected_write inject ~op:"aio.write" fd data;
     if durable then
       opt_injection inject ~op:"aio.fsync" (fun () -> Unix.fsync fd);
     Unix.close fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (* An injected crash is a simulated process death: leave the torn
        temp file exactly as a real crash would (sweep_tmp collects it
        at the next startup).  Ordinary errors clean up. *)
     (match e with
     | Injected_crash _ -> ()
     | _ -> ( try Sys.remove tmp with Sys_error _ -> ()));
     raise e);
  opt_injection inject ~op:"aio.rename" (fun () -> Sys.rename tmp path);
  if durable then fsync_dir ?inject (Filename.dirname path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let mkdir_p path =
  let rec go path =
    if not (Sys.file_exists path) then begin
      go (Filename.dirname path);
      try Unix.mkdir path 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path;
  if not (Sys.is_directory path) then
    raise (Sys_error (path ^ ": not a directory"))

let sweep_tmp dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | entries ->
    Array.fold_left
      (fun n name ->
        if Filename.check_suffix name ".tmp" then begin
          (try Sys.remove (Filename.concat dir name) with Sys_error _ -> ());
          n + 1
        end
        else n)
      0 entries
