type job = {
  job_profile : Workload.Profile.t;
  job_scheme : Critics.Scheme.t option; (* None: prepare the context only *)
  job_config : Pipeline.Config.t;
  job_variant : Critics.Run.variant;
}

type t = {
  instrs : int;
  telemetry : int option; (* probe window size; None = probes disabled *)
  store : Store.t option; (* prepared-artifact cache; None = hermetic *)
  pool : Parallel.Pool.t Lazy.t;
  lock : Mutex.t;
  contexts : (string, Critics.Run.app_context) Hashtbl.t;
  databases : (string, Profiler.Critic_db.t) Hashtbl.t;
  results : (string, Pipeline.Stats.t) Hashtbl.t;
  probes : (string, Telemetry.Probe.t) Hashtbl.t;
}

let create ?(instrs = Critics.Run.default_instrs) ?jobs ?telemetry ?store () =
  let jobs =
    max 1 (match jobs with Some j -> j | None -> Parallel.default_jobs ())
  in
  {
    instrs;
    telemetry;
    store;
    pool = lazy (Parallel.Pool.create ~jobs ());
    lock = Mutex.create ();
    contexts = Hashtbl.create 32;
    databases = Hashtbl.create 32;
    results = Hashtbl.create 256;
    probes = Hashtbl.create 256;
  }

(* The memoization key depends on the *actual* machine configuration
   and database variant: both are pure data records, so a digest of the
   marshalled bytes is a canonical fingerprint.  Distinct values never
   collide, and structurally equal ones share one entry. *)
let fingerprint v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let default_fingerprint = fingerprint Pipeline.Config.table_i

let fingerprint_of = function
  | None -> default_fingerprint
  | Some c -> fingerprint c

(* Any other variant appends its fingerprint; the prepared one adds
   nothing, so a prepared cell's key is app/scheme/<config digest>. *)
let variant_parts (v : Critics.Run.variant) =
  if v = Critics.Run.prepared then [] else [ fingerprint v ]

let result_key (profile : Workload.Profile.t) scheme fingerprint variant =
  String.concat "/"
    (profile.name :: Critics.Scheme.name scheme :: fingerprint
   :: variant_parts variant)

let database_key (profile : Workload.Profile.t) variant =
  String.concat "/" (profile.name :: variant_parts variant)

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

(* A variant's database, kept for the harness's lifetime: only what an
   artifact reads back itself comes through here.  A simulation derives
   its own database and keeps none. *)
let database t profile variant =
  find_or_add t t.databases (database_key profile variant) (fun () ->
      Critics.Run.database (context t profile) variant)

(* One simulation, under the stats memo.  With telemetry enabled it
   attaches a fresh probe and — only if the run completes — stores it
   under the same memo key as the stats, first insert winning.  Every
   job is deterministic, so a lost race stores an identical probe. *)
let simulate t ?config ~variant ~key ctx scheme =
  match t.telemetry with
  | None ->
    (* Store-backed layer under the in-memory memo: a completed
       simulation is a deterministic function of the prepared context
       (ckey), the scheme, the machine configuration and the database
       variant, so warm runs deserialize the stats instead of
       simulating.  Without a store this just simulates. *)
    Store.memo t.store
      (Store.key ~kind:"stats"
         (ctx.Critics.Run.ckey :: Critics.Scheme.name scheme
        :: fingerprint_of config :: variant_parts variant))
      (fun () : Pipeline.Stats.t ->
        Critics.Run.stats ?config ~variant ctx scheme)
  | Some window ->
    let probe = Telemetry.Probe.create ~window () in
    let st = Critics.Run.stats ?config ~probe ~variant ctx scheme in
    Mutex.lock t.lock;
    if not (Hashtbl.mem t.probes key) then Hashtbl.replace t.probes key probe;
    Mutex.unlock t.lock;
    st

let stats t ?config ?(variant = Critics.Run.prepared)
    (profile : Workload.Profile.t) scheme =
  let key = result_key profile scheme (fingerprint_of config) variant in
  find_or_add t t.results key (fun () ->
      simulate t ?config ~variant ~key (context t profile) scheme)

let probe_for t ?config (profile : Workload.Profile.t) scheme =
  let key =
    result_key profile scheme (fingerprint_of config) Critics.Run.prepared
  in
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
          ( result_key j.job_profile scheme (fingerprint j.job_config)
              j.job_variant,
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

let speedup t ?config ?variant profile scheme =
  let base = stats t profile Critics.Scheme.Baseline in
  Critics.Run.speedup ~base (stats t ?config ?variant profile scheme)

(* ------------------------------ batches --------------------------- *)

let job ?(config = Pipeline.Config.table_i) ?(variant = Critics.Run.prepared)
    profile scheme =
  {
    job_profile = profile;
    job_scheme = Some scheme;
    job_config = config;
    job_variant = variant;
  }

let context_job ?(variant = Critics.Run.prepared) profile =
  {
    job_profile = profile;
    job_scheme = None;
    job_config = Pipeline.Config.table_i;
    job_variant = variant;
  }

let run_batch t jobs =
  let map f xs = ignore (Parallel.Pool.map_list (Lazy.force t.pool) f xs) in
  (* Phase 1: every application's context, one parallel task per
     application (preparation cost is uneven across apps). *)
  map (context t)
    (List.sort_uniq
       (fun (a : Workload.Profile.t) b -> compare a.name b.name)
       (List.map (fun j -> j.job_profile) jobs));
  (* Phase 2: every distinct (app, scheme, config, variant) simulation.
     Key order groups an app's jobs by scheme, so consecutive
     simulations share the context's transform slot. *)
  map
    (fun (_, j, scheme) ->
      stats t ~config:j.job_config ~variant:j.job_variant j.job_profile scheme)
    (simulations jobs);
  (* Phase 3: every distinct database a context-only job names. *)
  map
    (fun (profile, variant) -> database t profile variant)
    (List.sort_uniq compare
       (List.filter_map
          (fun j ->
            if j.job_scheme = None then Some (j.job_profile, j.job_variant)
            else None)
          jobs))

let mean = Util.Stats.mean

let suites =
  [
    ("Mobile", Workload.Apps.mobile);
    ("SPEC.int", Workload.Apps.spec_int);
    ("SPEC.float", Workload.Apps.spec_float);
  ]
