(* Fixed-size domain pool over a shared job queue.

   Workers are OCaml 5 domains blocked on a condition variable; batches
   submitted through [run] are executed by [jobs - 1] workers plus the
   submitting domain itself (the caller drains the queue while its batch
   is outstanding, so a pool with [jobs = 1] or a nested [run] from
   inside a task degrades gracefully to sequential execution instead of
   deadlocking). *)

exception Batch_failure of (exn * string) list

let () =
  Printexc.register_printer (function
    | Batch_failure errs ->
      Some
        (Printf.sprintf "Pool.Batch_failure: %d jobs failed: %s"
           (List.length errs)
           (String.concat "; "
              (List.map (fun (e, _) -> Printexc.to_string e) errs)))
    | _ -> None)

(* Per-job failures are recorded in submission order, each with the
   backtrace captured at the catch point. *)
type batch = {
  mutable remaining : int;
  mutable errs : (int * exn * string) list; (* submission idx, newest first *)
}

type t = {
  jobs : int;
  lock : Mutex.t;
  work_available : Condition.t;
  batch_done : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable live : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

(* One process-wide registry of live pools, drained by a single
   [at_exit] callback.  Registering a fresh closure per pool kept every
   pool (and its captured state) reachable for the life of the process —
   a leak for test suites that create hundreds of short-lived pools. *)
let registry_lock = Mutex.create ()
let registry : t list ref = ref []
let registry_at_exit_installed = ref false

let shutdown t =
  Mutex.lock registry_lock;
  registry := List.filter (fun p -> p != t) !registry;
  Mutex.unlock registry_lock;
  Mutex.lock t.lock;
  t.live <- false;
  Condition.broadcast t.work_available;
  let workers = t.workers in
  t.workers <- [];
  Mutex.unlock t.lock;
  List.iter Domain.join workers

let register t =
  Mutex.lock registry_lock;
  registry := t :: !registry;
  if not !registry_at_exit_installed then begin
    registry_at_exit_installed := true;
    at_exit (fun () ->
        let rec drain () =
          Mutex.lock registry_lock;
          let pools = !registry in
          registry := [];
          Mutex.unlock registry_lock;
          if pools <> [] then begin
            List.iter shutdown pools;
            drain ()
          end
        in
        drain ())
  end;
  Mutex.unlock registry_lock

let create ?jobs () =
  let jobs = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  let t =
    {
      jobs;
      lock = Mutex.create ();
      work_available = Condition.create ();
      batch_done = Condition.create ();
      queue = Queue.create ();
      live = true;
      workers = [];
    }
  in
  register t;
  t

let jobs t = t.jobs

let rec worker_loop t =
  Mutex.lock t.lock;
  let rec next () =
    if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
    else if not t.live then None
    else begin
      Condition.wait t.work_available t.lock;
      next ()
    end
  in
  let task = next () in
  Mutex.unlock t.lock;
  match task with
  | None -> ()
  | Some f ->
    f ();
    worker_loop t

(* Spawn the worker domains on first use, so pools that only ever run
   sequentially (jobs = 1, or no batch submitted) cost nothing. *)
let ensure_workers t =
  Mutex.lock t.lock;
  let missing = t.live && t.workers = [] && t.jobs > 1 in
  Mutex.unlock t.lock;
  if missing then begin
    let spawned =
      List.init (t.jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t))
    in
    Mutex.lock t.lock;
    t.workers <- t.workers @ spawned;
    Mutex.unlock t.lock
  end

(* Re-raise policy shared by the sequential and parallel paths: one
   failed job re-raises its own exception (existing behavior callers
   match on); several raise the composite so no failure is silently
   dropped. *)
let raise_collected errs =
  match errs with
  | [] -> ()
  | [ (_, e, _) ] -> raise e
  | _ ->
    raise
      (Batch_failure
         (List.map
            (fun (_, e, bt) -> (e, bt))
            (List.sort
               (fun (a, _, _) (b, _, _) -> Int.compare a b)
               errs)))

let run t thunks =
  match thunks with
  | [] -> ()
  | [ f ] -> f ()
  | _ when t.jobs <= 1 ->
    let errs = ref [] in
    List.iteri
      (fun i f ->
        try f ()
        with e ->
          errs := (i, e, Printexc.get_backtrace ()) :: !errs)
      thunks;
    raise_collected !errs
  | _ ->
    ensure_workers t;
    let batch = { remaining = List.length thunks; errs = [] } in
    let wrap i f () =
      (try f ()
       with e ->
         let bt = Printexc.get_backtrace () in
         Mutex.lock t.lock;
         batch.errs <- (i, e, bt) :: batch.errs;
         Mutex.unlock t.lock);
      Mutex.lock t.lock;
      batch.remaining <- batch.remaining - 1;
      if batch.remaining = 0 then Condition.broadcast t.batch_done;
      Mutex.unlock t.lock
    in
    Mutex.lock t.lock;
    List.iteri (fun i f -> Queue.add (wrap i f) t.queue) thunks;
    Condition.broadcast t.work_available;
    let rec help () =
      if batch.remaining > 0 then
        if not (Queue.is_empty t.queue) then begin
          let task = Queue.pop t.queue in
          Mutex.unlock t.lock;
          task ();
          Mutex.lock t.lock;
          help ()
        end
        else begin
          Condition.wait t.batch_done t.lock;
          help ()
        end
    in
    help ();
    Mutex.unlock t.lock;
    raise_collected batch.errs

let map ?chunk t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if t.jobs <= 1 || n = 1 then Array.map f xs
  else begin
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> max 1 (n / (t.jobs * 8))
    in
    let out = Array.make n None in
    let nchunks = (n + chunk - 1) / chunk in
    let thunks =
      List.init nchunks (fun c ->
          let lo = c * chunk in
          let hi = min n (lo + chunk) in
          fun () ->
            for i = lo to hi - 1 do
              out.(i) <- Some (f xs.(i))
            done)
    in
    run t thunks;
    Array.map
      (function Some v -> v | None -> assert false (* run would have raised *))
      out
  end

let map_list ?chunk t f xs =
  Array.to_list (map ?chunk t f (Array.of_list xs))

let map_reduce ?chunk t ~map:f ~reduce ~init xs =
  List.fold_left reduce init (map_list ?chunk t f xs)
