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
   job is deterministic, so a lost race stores an identical probe. *)
let simulate t ?config ~key ctx scheme =
  match t.telemetry with
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
      (fun () : Pipeline.Stats.t -> Critics.Run.stats ?config ctx scheme)
  | Some window ->
    let probe = Telemetry.Probe.create ~window () in
    let st = Critics.Run.stats ?config ~probe ctx scheme in
    Mutex.lock t.lock;
    if not (Hashtbl.mem t.probes key) then Hashtbl.replace t.probes key probe;
    Mutex.unlock t.lock;
    st

let stats t ?config (profile : Workload.Profile.t) scheme =
  let key = result_key profile scheme (fingerprint_of config) in
  find_or_add t t.results key (fun () ->
      simulate t ?config ~key (context t profile) scheme)

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
         stats t ~config:j.job_config j.job_profile scheme)
       (simulations jobs))

let mean = Util.Stats.mean

let suites =
  [
    ("Mobile", Workload.Apps.mobile);
    ("SPEC.int", Workload.Apps.spec_int);
    ("SPEC.float", Workload.Apps.spec_float);
  ]
