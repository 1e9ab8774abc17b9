type job = {
  job_profile : Workload.Profile.t;
  job_scheme : Critics.Scheme.t option; (* None: prepare the context only *)
  job_config : Pipeline.Config.t;
}

type t = {
  instrs : int;
  jobs : int;
  telemetry : int option; (* probe window size; None = probes disabled *)
  store : Store.t option; (* prepared-artifact cache; None = hermetic *)
  pool : Parallel.Pool.t Lazy.t;
  lock : Mutex.t;
  contexts : (string, Critics.Run.app_context) Hashtbl.t;
  results : (string, Pipeline.Stats.t) Hashtbl.t;
  probes : (string, Telemetry.Probe.t) Hashtbl.t;
}

let create ?(instrs = Critics.Run.default_instrs) ?jobs ?telemetry ?store () =
  let jobs =
    max 1 (match jobs with Some j -> j | None -> Parallel.default_jobs ())
  in
  {
    instrs;
    jobs;
    telemetry;
    store;
    pool = lazy (Parallel.Pool.create ~jobs ());
    lock = Mutex.create ();
    contexts = Hashtbl.create 32;
    results = Hashtbl.create 256;
    probes = Hashtbl.create 256;
  }

let instrs t = t.instrs
let jobs t = t.jobs
let store t = t.store
let pool t = Lazy.force t.pool

let fan_out t settings apps f =
  let per =
    Array.of_list
      (Parallel.Pool.map_list ~chunk:1 (pool t)
         (fun (s, app) -> f s app)
         (List.concat_map (fun s -> List.map (fun a -> (s, a)) apps) settings))
  in
  let n = List.length apps in
  List.mapi (fun i s -> (s, Array.to_list (Array.sub per (i * n) n))) settings

(* The memoization key depends on the *actual* machine configuration:
   Config.t is a pure data record, so a digest of its marshalled bytes
   is a canonical fingerprint.  Distinct configs never collide, and
   structurally equal ones share one entry. *)
let config_fingerprint (config : Pipeline.Config.t) =
  Digest.to_hex (Digest.string (Marshal.to_string config []))

let default_fingerprint = config_fingerprint Pipeline.Config.table_i

let fingerprint_of = function
  | None -> default_fingerprint
  | Some c -> config_fingerprint c

let result_key (profile : Workload.Profile.t) scheme fingerprint =
  Printf.sprintf "%s/%s/%s" profile.name (Critics.Scheme.name scheme)
    fingerprint

(* The one path into the harness's memo tables (Util.Memo): the first
   insert wins, so every caller shares one value — one context and its
   transform slot, one stats record. *)
let find_or_add t table key compute =
  Util.Memo.find_or_add t.lock
    ~find:(fun () -> Hashtbl.find_opt table key)
    ~add:(Hashtbl.replace table key) compute

let context t (profile : Workload.Profile.t) =
  find_or_add t t.contexts profile.name (fun () ->
      Critics.Run.prepare ?store:t.store ~instrs:t.instrs profile)

(* One simulation, under the stats memo.  With telemetry enabled it
   attaches a fresh probe and — only if the run completes — stores it
   under the same memo key as the stats, first insert winning.  Every
   job is deterministic, so a lost race stores an identical probe;
   failed runs (fault injection, fuel) leave neither stats nor probe
   behind. *)
let simulate t ?config ?fuel ~key ctx scheme =
  match t.telemetry with
  | None -> (
    match fuel with
    | Some _ ->
      (* A fuel budget runs live.  A cached entry proves some unbounded
         run completed — returning it under a small fuel budget would
         mask the abort the caller asked for (the supervised stall
         faults depend on that abort). *)
      Critics.Run.stats ?config ?fuel ctx scheme
    | None ->
      (* Store-backed layer under the in-memory memo: a completed
         simulation is a deterministic function of the prepared context
         (ckey), the scheme and the machine configuration, so warm runs
         deserialize the stats instead of simulating.  Without a store
         this just simulates. *)
      Store.memo t.store
        (Store.key ~kind:"stats"
           [
             ctx.Critics.Run.ckey;
             Critics.Scheme.name scheme;
             fingerprint_of config;
           ])
        (fun () : Pipeline.Stats.t -> Critics.Run.stats ?config ctx scheme))
  | Some window ->
    let probe = Telemetry.Probe.create ~window () in
    let st = Critics.Run.stats ?config ?fuel ~probe ctx scheme in
    Mutex.lock t.lock;
    if not (Hashtbl.mem t.probes key) then Hashtbl.replace t.probes key probe;
    Mutex.unlock t.lock;
    st

(* Find-or-simulate: every stats request — [stats], [run_batch] and the
   supervised batches — goes through here. *)
let find_or_simulate t ?config ?fuel (profile : Workload.Profile.t) scheme =
  let key = result_key profile scheme (fingerprint_of config) in
  find_or_add t t.results key (fun () ->
      simulate t ?config ?fuel ~key (context t profile) scheme)

let stats t ?config profile scheme = find_or_simulate t ?config profile scheme

let probe_for t ?config (profile : Workload.Profile.t) scheme =
  let key = result_key profile scheme (fingerprint_of config) in
  Mutex.lock t.lock;
  let p = Hashtbl.find_opt t.probes key in
  Mutex.unlock t.lock;
  p

let telemetry_probes t =
  Mutex.lock t.lock;
  let l = Hashtbl.fold (fun k p acc -> (k, p) :: acc) t.probes [] in
  Mutex.unlock t.lock;
  List.sort (fun (a, _) (b, _) -> compare a b) l

(* The distinct simulations a job list names, as (memo key, job,
   scheme), sorted by key: grouped by app, then scheme.  Context-only
   jobs name none. *)
let simulations jobs =
  List.filter_map
    (fun j ->
      Option.map
        (fun scheme ->
          ( result_key j.job_profile scheme (config_fingerprint j.job_config),
            j,
            scheme ))
        j.job_scheme)
    jobs
  |> List.sort_uniq (fun (a, _, _) (b, _, _) -> compare a b)

let telemetry_registry_for t jobs =
  let into = Telemetry.Registry.create () in
  List.iter
    (fun (key, _, _) ->
      Mutex.lock t.lock;
      let p = Hashtbl.find_opt t.probes key in
      Mutex.unlock t.lock;
      match p with
      | Some p ->
        Telemetry.Registry.merge_into ~into (Telemetry.Probe.registry p)
      | None -> ())
    (simulations jobs);
  into

(* Fetch-bandwidth aggregate over a job set's memoized results: total
   instruction bytes delivered and total simulated cycles, summed over
   the distinct (app, scheme, config) simulations the jobs name.  Jobs
   not yet simulated contribute nothing. *)
let fetch_totals_for t jobs =
  List.fold_left
    (fun (bytes, cycles) (key, _, _) ->
      Mutex.lock t.lock;
      let st = Hashtbl.find_opt t.results key in
      Mutex.unlock t.lock;
      match st with
      | Some (s : Pipeline.Stats.t) ->
        (bytes + s.fetch_bytes, cycles + s.cycles)
      | None -> (bytes, cycles))
    (0, 0) (simulations jobs)

let telemetry_registry t =
  let into = Telemetry.Registry.create () in
  (* Sorted memo-key order: the aggregate is independent of the pool's
     completion order by construction (and merge is order-insensitive
     anyway — the qcheck suite checks both). *)
  List.iter
    (fun (_, p) ->
      Telemetry.Registry.merge_into ~into (Telemetry.Probe.registry p))
    (telemetry_probes t);
  into

let speedup t ?config profile scheme =
  let base = stats t profile Critics.Scheme.Baseline in
  Critics.Run.speedup ~base (stats t ?config profile scheme)

(* ------------------------------ batches --------------------------- *)

let job ?config profile scheme =
  {
    job_profile = profile;
    job_scheme = Some scheme;
    job_config = (match config with Some c -> c | None -> Pipeline.Config.table_i);
  }

let context_job profile =
  {
    job_profile = profile;
    job_scheme = None;
    job_config = Pipeline.Config.table_i;
  }

let run_batch t jobs =
  (* Phase 1: every application's context, one parallel task per
     application (chunk 1: preparation cost is uneven across apps). *)
  ignore
    (Parallel.Pool.map_list ~chunk:1 (pool t) (context t)
       (List.sort_uniq
          (fun (a : Workload.Profile.t) b -> compare a.name b.name)
          (List.map (fun j -> j.job_profile) jobs)));
  (* Phase 2: every distinct (app, scheme, config) simulation.  Key order
     groups an app's jobs by scheme, so consecutive simulations share the
     context's transform slot. *)
  ignore
    (Parallel.Pool.map_list ~chunk:1 (pool t)
       (fun (_, j, scheme) ->
         find_or_simulate t ~config:j.job_config j.job_profile scheme)
       (simulations jobs))

(* ------------------------- supervised batches --------------------- *)

type policy = {
  retries : int;
  backoff_ms : float;
  backoff_max_ms : float;
  backoff_seed : int;
  fuel : int option;
  wall_deadline_s : float option;
  quarantine_after : int;
  stall_fuel : int;
}

let default_policy =
  {
    retries = 2;
    backoff_ms = 0.0;
    backoff_max_ms = 250.0;
    backoff_seed = 0;
    fuel = None;
    wall_deadline_s = None;
    quarantine_after = 3;
    stall_fuel = 64;
  }

type outcome =
  | Completed
  | Failed of Util.Err.t
  | Quarantined of Util.Err.t
  | Skipped of Util.Err.t

type job_report = {
  report_app : string;
  report_scheme : string option;
  report_attempts : int;
  report_outcome : outcome;
}

type batch_report = {
  completed : int;
  failures : job_report list;
  reports : job_report list;
  rounds : int;
}

let job_app j = j.job_profile.name
let job_scheme_name j = Option.map Critics.Scheme.name j.job_scheme

(* One attempt of one job, with the planned fault (if any) applied
   first.  Failures must leave no trace: nothing is written to the memo
   tables unless the simulation ran to completion. *)
let supervised_exec t (policy : policy) faults j ~attempt =
  let app = job_app j in
  (match Workload.Fault.action_for faults ~app with
  | Some (Workload.Fault.Raise_transient n) when attempt <= n ->
    Util.Err.failf Transient "injected transient fault (attempt %d of %d)"
      attempt n
  | Some Workload.Fault.Raise_fatal -> Util.Err.fail Fatal "injected fatal fault"
  | Some Workload.Fault.Corrupt_db ->
    (* Round-trip this app's database through a truncated serialization,
       as if the loader had been handed the remains of a crashed
       non-atomic writer.  The parse failure (Corrupt_input, naming the
       pseudo-path) is the job's failure. *)
    let ctx = context t j.job_profile in
    let text = Profiler.Db_io.to_string ctx.db in
    ignore
      (Profiler.Db_io.of_string
         ~path:(app ^ ".db[injected]")
         (Workload.Fault.truncate_string text))
  | Some (Workload.Fault.Raise_transient _) (* past its failing attempts *)
  | Some Workload.Fault.Stall | None ->
    ());
  let fuel =
    match Workload.Fault.action_for faults ~app with
    | Some Workload.Fault.Stall ->
      (* A stalled job is modeled as one that would run forever: give it
         a budget far below any real simulation so the cycle-loop
         watchdog aborts it deterministically. *)
      Some policy.stall_fuel
    | _ -> policy.fuel
  in
  match j.job_scheme with
  | None -> ignore (context t j.job_profile)
  | Some scheme ->
    ignore
      (find_or_simulate t ~config:j.job_config ?fuel j.job_profile scheme)

(* Bounded deterministic backoff before retry round [round]: base
   delay doubled per round, seeded jitter in [0.5, 1.5), capped.  No
   ambient randomness — the same policy waits the same time. *)
let backoff_delay_s (policy : policy) ~round =
  if policy.backoff_ms <= 0.0 then 0.0
  else begin
    let rng = Util.Rng.create (policy.backoff_seed + (round * 0x9E37)) in
    let base = policy.backoff_ms *. (2.0 ** float_of_int (round - 1)) in
    let jitter = 0.5 +. Util.Rng.float rng 1.0 in
    Float.min policy.backoff_max_ms (base *. jitter) /. 1000.0
  end

let run_batch_supervised ?(policy = default_policy)
    ?(faults = Workload.Fault.none) t jobs =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let outcome : outcome option array = Array.make n None in
  let attempts = Array.make n 0 in
  let app_failures : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let failure_count app =
    Option.value ~default:0 (Hashtbl.find_opt app_failures app)
  in
  let quarantined app = failure_count app >= policy.quarantine_after in
  let t_start = Unix.gettimeofday () in
  let deadline_passed () =
    match policy.wall_deadline_s with
    | None -> false
    | Some d -> Unix.gettimeofday () -. t_start >= d
  in
  let rounds = ref 0 in
  let finished = ref false in
  while not !finished do
    (* Dispatch set for this round: every undecided job whose app is not
       quarantined.  The wall-clock deadline is checked here — at batch
       granularity — so a round in flight always drains. *)
    let quarantine_now i j =
      let app = job_app j in
      let err =
        Util.Err.make ~app ?scheme:(job_scheme_name j)
          ~attempts:attempts.(i) Cancelled
          (Printf.sprintf "app quarantined after %d failures"
             (failure_count app))
      in
      outcome.(i) <- Some (Quarantined err)
    in
    if deadline_passed () then begin
      Array.iteri
        (fun i j ->
          if outcome.(i) = None then
            outcome.(i) <-
              Some
                (Skipped
                   (Util.Err.make ~app:(job_app j)
                      ?scheme:(job_scheme_name j) ~attempts:attempts.(i)
                      Cancelled "batch wall-clock deadline exceeded")))
        jobs;
      finished := true
    end
    else begin
      Array.iteri
        (fun i j ->
          if outcome.(i) = None && quarantined (job_app j) then
            quarantine_now i j)
        jobs;
      let pending = ref [] in
      for i = n - 1 downto 0 do
        if outcome.(i) = None then pending := i :: !pending
      done;
      match !pending with
      | [] -> finished := true
      | pending ->
        incr rounds;
        if !rounds > 1 then begin
          let d = backoff_delay_s policy ~round:(!rounds - 1) in
          if d > 0.0 then Unix.sleepf d
        end;
        List.iter (fun i -> attempts.(i) <- attempts.(i) + 1) pending;
        let results =
          Parallel.Pool.run_supervised (pool t)
            (List.map
               (fun i () ->
                 supervised_exec t policy faults jobs.(i)
                   ~attempt:attempts.(i))
               pending)
        in
        (* Results are processed in submission order, so failure counts,
           quarantine and retry decisions are identical at every
           parallelism width. *)
        List.iter2
          (fun i result ->
            match result with
            | Ok () -> outcome.(i) <- Some Completed
            | Error (exn, bt) ->
              let j = jobs.(i) in
              let app = job_app j in
              let err =
                Util.Err.with_context ~app ?scheme:(job_scheme_name j)
                  ~attempts:attempts.(i)
                  (Util.Err.of_exn ~backtrace:bt exn)
              in
              Hashtbl.replace app_failures app (failure_count app + 1);
              if quarantined app then
                outcome.(i) <-
                  Some
                    (Quarantined
                       {
                         err with
                         msg =
                           Printf.sprintf "%s (app quarantined after %d \
                                           failures)"
                             err.msg (failure_count app);
                       })
              else if
                Util.Err.retryable err && attempts.(i) <= policy.retries
              then () (* stays undecided: retried next round *)
              else outcome.(i) <- Some (Failed err))
          pending results
    end
  done;
  let reports =
    Array.to_list
      (Array.mapi
         (fun i j ->
           {
             report_app = job_app j;
             report_scheme = job_scheme_name j;
             report_attempts = attempts.(i);
             report_outcome =
               (match outcome.(i) with
               | Some o -> o
               | None -> assert false (* loop exits only when decided *));
           })
         jobs)
  in
  let failures =
    List.filter (fun r -> r.report_outcome <> Completed) reports
  in
  {
    completed = List.length reports - List.length failures;
    failures;
    reports;
    rounds = !rounds;
  }

let outcome_name = function
  | Completed -> "completed"
  | Failed _ -> "failed"
  | Quarantined _ -> "quarantined"
  | Skipped _ -> "skipped"

let outcome_err = function
  | Completed -> None
  | Failed e | Quarantined e | Skipped e -> Some e

let render_report (r : batch_report) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%d/%d jobs completed in %d round(s)\n" r.completed
       (List.length r.reports) r.rounds);
  List.iter
    (fun jr ->
      Buffer.add_string b
        (Printf.sprintf "  %-12s %-14s %-12s attempts=%d%s\n" jr.report_app
           (match jr.report_scheme with Some s -> s | None -> "(context)")
           (outcome_name jr.report_outcome)
           jr.report_attempts
           (match outcome_err jr.report_outcome with
           | Some e -> " " ^ Util.Err.to_string e
           | None -> "")))
    r.failures;
  Buffer.contents b

let mean = Util.Stats.mean

let suites =
  [
    ("Mobile", Workload.Apps.mobile);
    ("SPEC.int", Workload.Apps.spec_int);
    ("SPEC.float", Workload.Apps.spec_float);
  ]
