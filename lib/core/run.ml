module Scheme = Transform.Scheme

type variant = {
  window : int;
  threshold : float;
  fraction : float;
  metric : Profiler.Metric.t;
  exact : int option;
}

let prepared =
  {
    window = 512;
    threshold = 4.0;
    fraction = 1.0;
    metric = Profiler.Metric.Average_fanout;
    exact = None;
  }

type scheme_cache = {
  cache_lock : Mutex.t;
  (* The last transformed program, if any.  Transformed programs of
     code-heavy apps run to several MB, so retaining every scheme a
     sweep visits would dominate the heap; one slot covers the hot
     access pattern (one scheme re-simulated across machine configs,
     interleaved with baseline, which needs no slot) at the price of
     re-running a cheap compiler pass when a context alternates between
     transformed schemes. *)
  mutable slot : ((Scheme.t * variant) * Prog.Program.t) option;
  mutable transforms : int;
  (* Per-(scheme, variant) block-temperature tables for the TRRIP
     i-cache policy: a few bytes per block, so not bounded.  Derived
     state, never marshalled with the context payload. *)
  mutable heats : ((Scheme.t * variant) * int array) list;
  (* Warmed memory hierarchies of the most recently simulated scheme,
     one per [Config.mem] (keyed by its marshalled bytes).  A warm pass
     depends only on the stream and the memory configuration, so every
     machine that shares one reuses it: each run simulates on a copy.
     Dropped when another scheme is simulated, so the cache holds one
     scheme's states at a time. *)
  mutable warm_scheme : Scheme.t option;
  mutable warm : (string * Mem.Hierarchy.t) list;
}

(* Everything the scheme cache memoizes goes through Util.Memo under
   the cache's lock: compiles and warm passes run outside it, and since
   every cached value is deterministic in the context, a lost race
   recomputes an identical value and the first write wins. *)
let find_or_add c ~find ~add compute =
  Util.Memo.find_or_add c.cache_lock
    ~find:(fun () -> find c)
    ~add:(add c) compute

type app_context = {
  profile : Workload.Profile.t;
  program : Prog.Program.t;
  seed : int;
  path : Prog.Walk.path;
  event_count : int;
  db : Profiler.Critic_db.t;
  scheme_cache : scheme_cache;
  ckey : string;
}

let default_instrs = 120_000

let context_key ?(instrs = default_instrs) ?(sample = 0)
    (profile : Workload.Profile.t) =
  Store.key ~kind:"context"
    [ Marshal.to_string profile []; string_of_int instrs; string_of_int sample ]

let profile_db v ~total_events stream =
  Profiler.Profile_run.profile_stream ~window:v.window ~threshold:v.threshold
    ~fraction:v.fraction ~metric:v.metric ~total_events stream

(* The tuple a context entry marshals: everything [prepare] derives.
   The scheme cache is rebuilt fresh (it holds a mutex). *)
type context_payload =
  Prog.Program.t * int * Prog.Walk.path * int * Profiler.Critic_db.t

let prepare ?store ?(instrs = default_instrs) ?(sample = 0)
    (profile : Workload.Profile.t) =
  let key = context_key ~instrs ~sample profile in
  let build () : context_payload =
    let program = Workload.Gen.program profile in
    let seed = (profile.seed lxor 0x5EED) + (sample * 0x1000193) in
    let path = Prog.Walk.path_for_instrs program ~seed ~instrs in
    let event_count = Prog.Trace.length_of_path program path in
    let db =
      profile_db prepared ~total_events:event_count
        (Prog.Trace.Stream.of_program program ~seed path)
    in
    (program, seed, path, event_count, db)
  in
  let program, seed, path, event_count, db = Store.memo store key build in
  {
    profile;
    program;
    seed;
    path;
    event_count;
    db;
    scheme_cache =
      {
        cache_lock = Mutex.create ();
        slot = None;
        transforms = 0;
        heats = [];
        warm_scheme = None;
        warm = [];
      };
    ckey = Store.key_digest key;
  }

let program_stream ctx program =
  Prog.Trace.Stream.of_program program ~seed:ctx.seed ctx.path

(* The prepared profile is the context's own database: only another
   profile re-reads the baseline stream. *)
let database ctx v =
  let db =
    if { v with exact = None } = prepared then ctx.db
    else
      profile_db v ~total_events:ctx.event_count
        (program_stream ctx ctx.program)
  in
  match v.exact with
  | None -> db
  | Some n -> Profiler.Critic_db.exact_length n db

(* A scheme with no passes (Baseline) is the context's own program and
   takes no slot. *)
let transformed ?(variant = prepared) ctx (scheme : Scheme.t) =
  match Scheme.pipeline scheme with
  | _, [] -> ctx.program
  | options, passes ->
    let build = (scheme, variant) in
    find_or_add ctx.scheme_cache
      ~find:(fun c ->
        match c.slot with Some (b, p) when b = build -> Some p | _ -> None)
      ~add:(fun c p ->
        c.transforms <- c.transforms + 1;
        c.slot <- Some (build, p))
      (fun () ->
        let options =
          match variant.exact with
          | None -> options
          | Some max_len -> { options with Transform.Pass.max_len }
        in
        fst
          (Transform.Pipeline.run
             (Transform.Pass.env ~options (database ctx variant))
             passes ctx.program))

let transform_count ctx = ctx.scheme_cache.transforms

let stream ctx scheme = program_stream ctx (transformed ctx scheme)

let source ctx scheme : Pipeline.Cpu.source = fun () -> stream ctx scheme

let trace_of ctx scheme =
  Prog.Trace.expand (transformed ctx scheme) ~seed:ctx.seed ctx.path

(* Block temperatures of a (scheme, variant) build's dynamic stream
   (Profiler.Heat), memoized per build. *)
let heat ctx build program =
  find_or_add ctx.scheme_cache
    ~find:(fun c -> List.assoc_opt build c.heats)
    ~add:(fun c t -> c.heats <- (build, t) :: c.heats)
    (fun () ->
      let num_blocks = Prog.Program.num_blocks program in
      Profiler.Heat.temperatures
        (Profiler.Heat.profile ~num_blocks (program_stream ctx program)))

(* The hierarchy a run of [scheme]'s [program] under memory
   configuration [mem] starts from, warmed once and shared: never
   simulate on it directly, only on a {!Mem.Hierarchy.copy}. *)
let warm_state ctx scheme program (mem : Mem.Hierarchy.config) =
  let key = Marshal.to_string mem [] in
  find_or_add ctx.scheme_cache
    ~find:(fun c ->
      if c.warm_scheme = Some scheme then List.assoc_opt key c.warm else None)
    ~add:(fun c h ->
      if c.warm_scheme <> Some scheme then begin
        c.warm_scheme <- Some scheme;
        c.warm <- []
      end;
      c.warm <- (key, h) :: c.warm)
    (fun () ->
      let h = Mem.Hierarchy.create mem in
      Pipeline.Cpu.warm h (program_stream ctx program);
      h)

let stats ?(config = Pipeline.Config.table_i) ?probe ?(variant = prepared) ctx
    scheme =
  (* One slot lookup per run: a stream pulled again later could find
     the slot taken by another domain's build and compile again. *)
  let program = transformed ~variant ctx scheme in
  (* The TRRIP policy is the one consumer of block temperatures; other
     policies ignore the hint, so the table is only computed (once per
     build) when it can matter.  The warm pass ignores hints, so TRRIP
     machines share warm states like any other. *)
  let itemp =
    match config.Pipeline.Config.mem.Mem.Hierarchy.l1i_policy with
    | Mem.Replacement.Trrip -> Some (heat ctx (scheme, variant) program)
    | Mem.Replacement.Lru | Mem.Replacement.Srrip | Mem.Replacement.Brrip ->
      None
  in
  (* Warm states are shared by the machines a prepared scheme runs on.
     A variant build is one sweep point, simulated once: it warms a
     hierarchy of its own and leaves the context's states in place. *)
  let hier =
    if variant = prepared then
      Some (Mem.Hierarchy.copy (warm_state ctx scheme program config.mem))
    else None
  in
  Pipeline.Cpu.run_stream ?hier ?probe ?itemp config (fun () ->
      program_stream ctx program)

let speedup ~base (st : Pipeline.Stats.t) =
  (float_of_int base.Pipeline.Stats.cycles /. float_of_int st.cycles) -. 1.0

let energy ~base st =
  Energy.Model.saving ~base:(Energy.Model.of_stats base)
    ~optimized:(Energy.Model.of_stats st)
