type job = {
  job_profile : Workload.Profile.t;
  job_scheme : Critics.Scheme.t option; (* None: prepare the context only *)
  job_config : Pipeline.Config.t;
  job_variant : Critics.Run.variant;
}

(* One simulated cell: its stats and, with telemetry on, the probe
   that observed the run. *)
type cell = { stats : Pipeline.Stats.t; probe : Telemetry.Probe.t option }

type t = {
  instrs : int;
  telemetry : int option; (* probe window size; None = probes disabled *)
  store : Store.t option; (* prepared-artifact cache; None = hermetic *)
  pool : Parallel.Pool.t Lazy.t;
  lock : Mutex.t;
  contexts : (string, Critics.Run.app_context) Hashtbl.t;
  databases : (string, Profiler.Critic_db.t) Hashtbl.t;
  cells : (string, cell) Hashtbl.t;
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
    cells = Hashtbl.create 256;
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

let cell_key (profile : Workload.Profile.t) scheme fingerprint variant =
  String.concat "/"
    (profile.name :: Critics.Scheme.name scheme :: fingerprint
   :: variant_parts variant)

let database_key (profile : Workload.Profile.t) variant =
  String.concat "/" (profile.name :: variant_parts variant)

(* The one path into the harness's memo tables (Util.Memo): the first
   insert wins, so every caller shares one value — one context and its
   transform slot, one database, one cell. *)
let find_or_add t table key compute =
  Util.Memo.find_or_add t.lock
    ~find:(fun () -> Hashtbl.find_opt table key)
    ~add:(Hashtbl.replace table key) compute

let context t (profile : Workload.Profile.t) =
  find_or_add t t.contexts profile.name (fun () ->
      Critics.Run.prepare ?store:t.store ~instrs:t.instrs profile)

(* Store-backed layer under an in-memory memo: what the harness derives
   from a prepared context is a deterministic function of that context
   (ckey) and of what its memo key names, so every store key is the
   pair. *)
let stored t ~kind ctx key compute =
  Store.memo t.store (Store.key ~kind [ ctx.Critics.Run.ckey; key ]) compute

(* The prepared variant's database is the context's own; any other is
   kept for the harness's lifetime and stored, for artifacts that read
   a variant's database themselves.  A simulation derives its own
   database and keeps none. *)
let database t profile variant =
  let ctx = context t profile in
  if variant = Critics.Run.prepared then ctx.Critics.Run.db
  else
    let key = database_key profile variant in
    find_or_add t t.databases key (fun () ->
        stored t ~kind:"database" ctx key (fun () ->
            Critics.Run.database ctx variant))

(* One simulation.  Without telemetry a warm run deserializes the
   stats instead of simulating (without a store it just simulates);
   with telemetry it always runs live, since a probe observes the run
   itself. *)
let simulate t ?config ~variant ~key ctx scheme =
  match t.telemetry with
  | None ->
    {
      stats =
        stored t ~kind:"stats" ctx key (fun () : Pipeline.Stats.t ->
            Critics.Run.stats ?config ~variant ctx scheme);
      probe = None;
    }
  | Some window ->
    let probe = Telemetry.Probe.create ~window () in
    {
      stats = Critics.Run.stats ?config ~probe ~variant ctx scheme;
      probe = Some probe;
    }

let stats t ?config ?(variant = Critics.Run.prepared) profile scheme =
  let key = cell_key profile scheme (fingerprint_of config) variant in
  let cell =
    find_or_add t t.cells key (fun () ->
        simulate t ?config ~variant ~key (context t profile) scheme)
  in
  cell.stats

let find_cell t key =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.cells key)

let probe_for t ?config profile scheme =
  let key =
    cell_key profile scheme (fingerprint_of config) Critics.Run.prepared
  in
  Option.bind (find_cell t key) (fun c -> c.probe)

let telemetry_probes t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun key c acc ->
          match c.probe with Some p -> (key, p) :: acc | None -> acc)
        t.cells [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The distinct simulations a job list names, as (memo key, job,
   scheme), sorted by key: grouped by app, then scheme.  Context-only
   jobs name none. *)
let simulations jobs =
  List.filter_map
    (fun j ->
      Option.map
        (fun scheme ->
          ( cell_key j.job_profile scheme (fingerprint j.job_config)
              j.job_variant,
            j,
            scheme ))
        j.job_scheme)
    jobs
  |> List.sort_uniq (fun (a, _, _) (b, _, _) -> compare a b)

(* Fetch-bandwidth aggregate over a job set's memoized cells: total
   instruction bytes delivered and total simulated cycles, summed over
   the distinct (app, scheme, config) simulations the jobs name.  Jobs
   not yet simulated contribute nothing. *)
let fetch_totals_for t jobs =
  List.fold_left
    (fun (bytes, cycles) (key, _, _) ->
      match find_cell t key with
      | Some { stats = s; _ } -> (bytes + s.fetch_bytes, cycles + s.cycles)
      | None -> (bytes, cycles))
    (0, 0) (simulations jobs)

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
  (* Phase 3: every distinct database a context-only job names; a
     prepared one is its context's own. *)
  map
    (fun (profile, variant) -> database t profile variant)
    (List.sort_uniq compare
       (List.filter_map
          (fun j ->
            if j.job_scheme = None && j.job_variant <> Critics.Run.prepared
            then Some (j.job_profile, j.job_variant)
            else None)
          jobs))

let mean = Util.Stats.mean

let suites =
  [
    ("Mobile", Workload.Apps.mobile);
    ("SPEC.int", Workload.Apps.spec_int);
    ("SPEC.float", Workload.Apps.spec_float);
  ]
