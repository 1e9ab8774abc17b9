type scheme_cache = {
  cache_lock : Mutex.t;
  (* MRU-first, at most [cache_capacity] entries.  Transformed programs
     of code-heavy apps run to several MB, so retaining every scheme a
     sweep visits would dominate the heap; one entry covers the hot
     access pattern (one scheme re-simulated across machine configs,
     interleaved with baseline — which lives outside the cache) at the
     price of re-running a cheap compiler pass when a context alternates
     between transformed schemes. *)
  mutable entries : (Scheme.t * Prog.Program.t) list;
  mutable transforms : int;
  (* Per-scheme block-temperature tables for the TRRIP i-cache policy:
     a few bytes per block, so not LRU-bounded.  Derived state, never
     marshalled with the context payload. *)
  mutable heats : (Scheme.t * int array) list;
}

let cache_capacity = 1

type app_context = {
  profile : Workload.Profile.t;
  program : Prog.Program.t;
  seed : int;
  path : Prog.Walk.path;
  event_count : int;
  db : Profiler.Critic_db.t;
  scheme_cache : scheme_cache;
  store : Store.t option;
  ckey : string;
}

let default_instrs = 120_000

(* Bump whenever the marshalled shape of the cached tuple — or of any
   type reachable from it — changes.  [Store.code_version] already
   invalidates on every commit; this constant covers dirty-worktree
   edits, where the git description stays "<sha>-dirty" across edits. *)
let context_format = "critics-ctx-1"

let context_key ?(instrs = default_instrs) ?(sample = 0)
    ?(profile_window = 512) ?threshold ?(profile_fraction = 1.0)
    (profile : Workload.Profile.t) =
  Store.key ~kind:"context"
    [
      context_format;
      Marshal.to_string profile [];
      string_of_int instrs;
      string_of_int sample;
      string_of_int profile_window;
      (match threshold with
      | None -> "default"
      | Some f -> Printf.sprintf "%h" f);
      Printf.sprintf "%h" profile_fraction;
    ]

(* The tuple a context entry marshals: everything [prepare] derives.
   The scheme cache is rebuilt fresh (it holds a mutex), and the store
   handle itself obviously isn't part of the payload. *)
type context_payload =
  Prog.Program.t * int * Prog.Walk.path * int * Profiler.Critic_db.t

let prepare ?store ?(instrs = default_instrs) ?(sample = 0)
    ?(profile_window = 512) ?threshold ?(profile_fraction = 1.0)
    (profile : Workload.Profile.t) =
  let key =
    context_key ~instrs ~sample ~profile_window ?threshold ~profile_fraction
      profile
  in
  let build () : context_payload =
    let program = Workload.Gen.program profile in
    let seed = (profile.seed lxor 0x5EED) + (sample * 0x1000193) in
    let path = Prog.Walk.path_for_instrs program ~seed ~instrs in
    let event_count = Prog.Trace.length_of_path program path in
    let db =
      Profiler.Profile_run.profile_stream ~window:profile_window ?threshold
        ~fraction:profile_fraction ~total_events:event_count
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
        entries = [];
        transforms = 0;
        heats = [];
      };
    store;
    ckey = Store.key_digest key;
  }

let rec transformed ctx (scheme : Scheme.t) =
  let critic ?(options = Transform.Critic_pass.default_options) () =
    fst (Transform.Critic_pass.apply ~options ctx.db ctx.program)
  in
  let compute () =
    match scheme with
    | Scheme.Baseline -> assert false
    | Scheme.Hoist ->
      critic
        ~options:
          { Transform.Critic_pass.default_options with mode = Hoist_only }
        ()
    | Scheme.Critic -> critic ()
    | Scheme.Critic_ideal ->
      critic ~options:Transform.Critic_pass.ideal_options ()
    | Scheme.Critic_branches ->
      critic
        ~options:{ Transform.Critic_pass.default_options with mode = Branches }
        ()
    | Scheme.Macro_ideal ->
      critic
        ~options:
          {
            Transform.Critic_pass.ideal_options with
            mode = Fused_macro;
            ideal = false;
          }
        ()
    | Scheme.Opp16 -> fst (Transform.Thumb.opp16 ctx.program)
    | Scheme.Compress -> fst (Transform.Thumb.compress ctx.program)
    | Scheme.Opp16_critic ->
      fst (Transform.Thumb.opp16 (transformed ctx Scheme.Critic))
    | Scheme.Narrow_only ->
      fst
        (Transform.Pipeline.run_exn
           (Transform.Pass.env ctx.db)
           Transform.Pipeline.narrow_only ctx.program)
    | Scheme.Critic_reorder ->
      fst
        (Transform.Pipeline.run_exn
           (Transform.Pass.env ctx.db)
           Transform.Pipeline.reordered ctx.program)
  in
  (* Store-backed layer under the in-memory memo: a transformed program
     is a deterministic function of the prepared context (ckey) and the
     scheme, so warm runs load its marshalled bytes instead of
     re-running the compiler pipeline.  Returns [(program,
     ran_compiler)] so the memo below can keep [transforms] an honest
     count of compiler-pipeline executions: store-served programs don't
     run the pipeline. *)
  let materialize () =
    let ran = ref false in
    let p : Prog.Program.t =
      Store.memo ctx.store
        (Store.key ~kind:"program" [ ctx.ckey; Scheme.name scheme ])
        (fun () ->
          ran := true;
          compute ())
    in
    (p, !ran)
  in
  match scheme with
  | Scheme.Baseline -> ctx.program
  | _ ->
    (* The mutex makes contexts shareable across the parallel harness's
       domains; passes are deterministic, so a lost race recomputes an
       identical program and the first write wins. *)
    let c = ctx.scheme_cache in
    Mutex.lock c.cache_lock;
    let hit = List.assoc_opt scheme c.entries in
    (match hit with
    | Some p ->
      if fst (List.hd c.entries) <> scheme then
        c.entries <-
          (scheme, p)
          :: List.filter (fun (s, _) -> s <> scheme) c.entries;
      Mutex.unlock c.cache_lock;
      p
    | None ->
      Mutex.unlock c.cache_lock;
      let p, ran_compiler = materialize () in
      Mutex.lock c.cache_lock;
      let p =
        match List.assoc_opt scheme c.entries with
        | Some winner -> winner
        | None ->
          if ran_compiler then c.transforms <- c.transforms + 1;
          c.entries <-
            (scheme, p)
            :: (if List.length c.entries >= cache_capacity then
                  List.filteri (fun i _ -> i < cache_capacity - 1) c.entries
                else c.entries);
          p
      in
      Mutex.unlock c.cache_lock;
      p)

let transform_count ctx = ctx.scheme_cache.transforms

let stream ctx scheme =
  Prog.Trace.Stream.of_program (transformed ctx scheme) ~seed:ctx.seed
    ctx.path

let source ctx scheme : Pipeline.Cpu.source = fun () -> stream ctx scheme

let trace_of ctx scheme =
  Prog.Trace.expand (transformed ctx scheme) ~seed:ctx.seed ctx.path

(* Block temperatures of a scheme's dynamic stream (Profiler.Heat),
   memoized per scheme: the profile is deterministic, so — as with
   transformed programs — a lost race between domains recomputes an
   identical table and the first write wins. *)
let heat ctx scheme =
  let c = ctx.scheme_cache in
  Mutex.lock c.cache_lock;
  let hit = List.assoc_opt scheme c.heats in
  Mutex.unlock c.cache_lock;
  match hit with
  | Some t -> t
  | None ->
    let num_blocks = Prog.Program.num_blocks (transformed ctx scheme) in
    let t =
      Profiler.Heat.temperatures
        (Profiler.Heat.profile ~num_blocks (stream ctx scheme))
    in
    Mutex.lock c.cache_lock;
    let t =
      match List.assoc_opt scheme c.heats with
      | Some winner -> winner
      | None ->
        c.heats <- (scheme, t) :: c.heats;
        t
    in
    Mutex.unlock c.cache_lock;
    t

let stats ?(config = Pipeline.Config.table_i) ?fuel ?probe ctx scheme =
  (* The TRRIP policy is the one consumer of block temperatures; other
     policies ignore the hint, so the table is only computed (once per
     scheme) when it can matter. *)
  if config.Pipeline.Config.mem.Mem.Hierarchy.l1i_policy = Mem.Replacement.Trrip
  then
    Pipeline.Cpu.run_stream ?fuel ?probe ~itemp:(heat ctx scheme) config
      (source ctx scheme)
  else Pipeline.Cpu.run_stream ?fuel ?probe config (source ctx scheme)

let speedup ~base (st : Pipeline.Stats.t) =
  (float_of_int base.Pipeline.Stats.cycles /. float_of_int st.cycles) -. 1.0

let energy ?params ~base st =
  Energy.Model.saving
    ~base:(Energy.Model.of_stats ?params base)
    ~optimized:(Energy.Model.of_stats ?params st)
