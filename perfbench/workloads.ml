(* The benchmark workloads: cells, reload and ingest.

   Each is a closed loop with one caller.  The seed chooses inputs
   (execution samples, user ranges, orders) but never the number, kind
   or app mix of ops, so every run of a workload times the same
   multiset of ops.  Each op's public calls are timed alone; its output
   check runs off the clock.  With a tracer, every public call is also
   wrapped in a span, and side calls that expose one layer run off the
   clock under the same op id. *)

module Run = Critics.Run
module Scheme = Critics.Scheme
module Harness = Experiments.Harness
module Engine = Service.Engine
module Registry = Telemetry.Registry
module Profile = Workload.Profile

type scale = {
  instrs : int;  (** work-instruction budget of every prepared context *)
  rounds : int;  (** reload: passes over the ten mobile apps *)
  users : int;  (** ingest: distinct uploads per app *)
  restart_rounds : int;
      (** ingest: rounds of uploads acked before the service restarts *)
  setups : int;
      (** repetitions of ingest's cheap set-up; setup_s is their median *)
}

let full =
  { instrs = 100_000; rounds = 10; users = 770; restart_rounds = 48;
    setups = 9 }

let tiny =
  { instrs = 20_000; rounds = 1; users = 4; restart_rounds = 1; setups = 1 }

type outcome = {
  setup_s : float list;  (** each set-up repetition, at reference speed *)
  setup_raw_s : float list;  (** the same, as measured *)
  lat_ms : float array;
      (** per op in issue order: its time at reference host speed *)
  clock : Host.clock;  (** the clock ops were timed on *)
  raw_ms : float array;  (** per op: its time on [clock], unscaled *)
  wall_ms : float array;  (** per op: monotonic-clock time as measured *)
  host_ms : float array;  (** per op: the host kernel's time around it *)
  kinds : string array;  (** per op; the same multiset for every seed *)
  failed : int;  (** ops that raised or failed their check *)
  digest : string;  (** over every op's result *)
  sim_events : int;  (** cells: events the simulator committed *)
  post_checks : (string * bool) list;  (** checks after the timed phase *)
  gc_minor_words : float;  (** timed phase *)
  gc_major_words : float;
  gc_major_collections : int;
}

let work_root = "_perfbench"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let work_dir name = Filename.concat (Filename.concat work_root "work") name

(* A fresh, empty work directory for one workload's on-disk state. *)
let fresh_dir name =
  let dir = work_dir name in
  rm_rf dir;
  mkdir_p dir;
  dir

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Run [setup ~tick] [n] times, timing each on [clock] at reference host
   speed (see Host), and keep the last state.  Before every repetition,
   off the clock, the previous state is dropped, [before] runs and the
   heap is collected, so every repetition times the same work and none
   pays for another's garbage; the heap is compacted after the last, so
   ops pay only for their own garbage.  Returns the scaled and the raw
   seconds of each. *)
let repeat_setup ?clock ?(before = ignore) n setup =
  let state = ref None and scaled = ref [] and raw = ref [] in
  for _ = 1 to max 1 n do
    state := None;
    before ();
    Gc.full_major ();
    let s, r, v = Host.timed ?clock setup in
    scaled := s :: !scaled;
    raw := r :: !raw;
    state := Some v
  done;
  Gc.compact ();
  ((List.rev !scaled, List.rev !raw), Option.get !state)

type driven = {
  d_clock : Host.clock;
  d_lat : float array;
  d_raw : float array;
  d_wall : float array;
  d_host : float array;
  d_failed : int;
  d_digest : string;
  d_gc : Gc.stat * Gc.stat;
}

(* The timed phase: issue every op in order, one at a time.  [call]
   makes the op's public calls and is the only thing timed, by [clock];
   [check] returns the digest of a correct result, or [None]; [after]
   runs after each op's check.  The host kernel is sampled off the
   clock, on the same clock, after every [every] ops, and each op's
   time is scaled by the samples on either side of its block. *)
let drive ?tr ?(clock = Host.Wall) ?(every = 1) ?(after = ignore) ops ~call
    ~check =
  let n = Array.length ops in
  let wall = Array.make n 0. and measured = Array.make n 0. in
  let lat = Array.make n 0. and host = Array.make n 0. in
  let failed = ref 0 and h = Buffer.create (16 * (n + 1)) in
  let fail id why =
    incr failed;
    Printf.eprintf "perfbench: op %d failed: %s\n%!" id why
  in
  let prev = ref (Host.sample ~clock ()) and block = ref 0 in
  let g0 = Gc.quick_stat () in
  Array.iteri
    (fun i op ->
      let id = i + 1 in
      let c0 = Host.now_ms clock and t = Spans.now_ns () in
      let r =
        try
          Ok (Spans.span tr ~layer:"op" ~name:"op" ~op:id (fun () -> call id op))
        with e -> Error e
      in
      measured.(i) <- Host.now_ms clock -. c0;
      wall.(i) <- Spans.ms_of_ns (Spans.now_ns () - t);
      (match r with
      | Error e -> fail id (Printexc.to_string e)
      | Ok v -> (
        match check id op v with
        | Some d -> Buffer.add_string h d
        | None -> fail id "output check"
        | exception e -> fail id ("check raised " ^ Printexc.to_string e)));
      after id;
      if id mod every = 0 || id = n then begin
        let s = Host.sample ~clock () in
        for j = !block to i do
          lat.(j) <- Host.scale measured.(j) ~before:!prev ~after:s;
          host.(j) <- (!prev +. s) /. 2.
        done;
        prev := s;
        block := id
      end)
    ops;
  let g1 = Gc.quick_stat () in
  {
    d_clock = clock;
    d_lat = lat;
    d_raw = measured;
    d_wall = wall;
    d_host = host;
    d_failed = !failed;
    d_digest = Buffer.contents h;
    d_gc = (g0, g1);
  }

let outcome ~setup_s:(setup_s, setup_raw_s) ~kinds ?(sim_events = 0)
    ?(post_checks = []) ?(extra = "") d =
  let g0, g1 = d.d_gc in
  {
    setup_s;
    setup_raw_s;
    clock = d.d_clock;
    lat_ms = d.d_lat;
    raw_ms = d.d_raw;
    wall_ms = d.d_wall;
    host_ms = d.d_host;
    kinds;
    failed = d.d_failed;
    digest = Digest.to_hex (Digest.string (d.d_digest ^ extra));
    sim_events;
    post_checks;
    gc_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    gc_major_words = g1.Gc.major_words -. g0.Gc.major_words;
    gc_major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let digest_of v = Digest.string (Marshal.to_string v [])

(* Programs memoize their largest uid on first demand; force it on both
   sides so structural equality compares content only. *)
let same_program a b =
  ignore (Prog.Program.max_uid a);
  ignore (Prog.Program.max_uid b);
  a = b

(* ------------------------------ cells ------------------------------ *)

(* The harness's memo key for a cell: app, scheme, and a digest of the
   machine configuration record. *)
let cell_key ((app : Profile.t), scheme, (config : Pipeline.Config.t)) =
  Printf.sprintf "%s/%s/%s" app.name (Scheme.name scheme)
    (Digest.to_hex (Digest.string (Marshal.to_string config [])))

(* The distinct (app, scheme, machine) cells the default bench
   prewarms — the jobs of Experiments.all, rebuilt as explicit triples
   and sorted by the harness key: app, then scheme, then config. *)
let cell_triples () =
  let open Pipeline.Config in
  let b = table_i in
  let all = Workload.Apps.all and mobile = Workload.Apps.mobile in
  let cells apps schemes configs =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun c -> List.map (fun s -> (a, s, c)) schemes)
          configs)
      apps
  in
  let ablation_apps =
    List.filter_map Workload.Apps.find [ "Acrobat"; "Browser"; "Youtube" ]
  in
  List.concat
    [
      (* fig1, fig3 *)
      cells all [ Scheme.Baseline ]
        [ b; with_critical_load_prefetch b; with_backend_prio b ];
      (* fig8, fig10, fig12, fig13, macro *)
      cells mobile
        Scheme.
          [ Baseline; Critic_branches; Critic; Hoist; Critic_ideal; Opp16;
            Compress; Opp16_critic; Macro_ideal ]
        [ b ];
      (* fig11 *)
      cells mobile
        [ Scheme.Baseline; Scheme.Critic ]
        (List.map
           (fun f -> f b)
           [ with_2x_fd; with_4x_icache; with_efetch; with_perfect_branch;
             with_backend_prio; all_hw ]);
      (* ablations *)
      cells ablation_apps [ Scheme.Baseline ]
        (List.map (fun iq -> { b with iq }) [ 16; 24; 48; 96 ]
        @ List.map (fun fq -> { b with fetch_queue = fq }) [ 8; 16; 24; 48 ]
        @ [ { b with wrong_path_fetch = true } ]);
      cells ablation_apps [ Scheme.Critic ]
        (List.map (fun p -> { b with cdp_decode_penalty = p }) [ 0; 1; 2 ]);
    ]
  |> List.map (fun c -> (cell_key c, c))
  |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)

(* Re-run the pieces [Critics.Run.prepare] composes on the context's own
   seed and path, each in a set-up span, and check they rebuild it. *)
let rebuilds ?tr ~instrs (app : Profile.t) (ctx : Run.app_context) =
  let op = 0 in
  let program =
    Spans.span tr ~layer:"workload" ~name:"Workload.Gen.program" ~op (fun () ->
        Workload.Gen.program app)
  in
  let path =
    Spans.span tr ~layer:"prog" ~name:"Prog.Walk.path_for_instrs" ~op
      (fun () -> Prog.Walk.path_for_instrs program ~seed:ctx.seed ~instrs)
  in
  let total = Prog.Trace.length_of_path program path in
  let db =
    Spans.span tr ~layer:"profiler" ~name:"Profiler.Profile_run.profile_stream"
      ~op (fun () ->
        Profiler.Profile_run.profile_stream ~window:512 ~fraction:1.0
          ~total_events:total
          (Prog.Trace.Stream.of_program program ~seed:ctx.seed path))
  in
  Spans.add tr "workload.static_instrs"
    (float_of_int (Prog.Program.instr_count program));
  Spans.add tr "profiler.events" (float_of_int total);
  Spans.add tr "profiler.sites" (float_of_int (List.length db.sites));
  same_program program ctx.program && path = ctx.path && db = ctx.db

let cells ?tr ~scale ~seed () =
  let sample = seed mod 1000 in
  let triples = Array.of_list (cell_triples ()) in
  let ops = Array.map snd triples in
  (* One set-up: it is 26 cold prepares, several seconds of CPU-bound
     work, already a long measurement. *)
  let setup_s, ctxs =
    repeat_setup 1 (fun ~tick ->
        let tbl = Hashtbl.create 32 in
        List.iter
          (fun (app : Profile.t) ->
            Hashtbl.replace tbl app.name
              (Run.prepare ~instrs:scale.instrs ~sample app);
            tick ())
          Workload.Apps.all;
        tbl)
  in
  let ctx_of (app : Profile.t) = Hashtbl.find ctxs app.name in
  (* Set-up checks, off the clock.  Traced, the pieces prepare composes
     are re-run on each context's own seed and path, as set-up spans
     (op 0), and must rebuild the same context. *)
  let prepared =
    List.for_all
      (fun (app : Profile.t) ->
        let ctx = ctx_of app in
        ctx.event_count = Prog.Trace.length_of_path ctx.program ctx.path
        && (Option.is_none tr || rebuilds ?tr ~instrs:scale.instrs app ctx))
      Workload.Apps.all
  in
  let dbs =
    String.concat ""
      (List.map
         (fun (app : Profile.t) -> digest_of (ctx_of app).db)
         Workload.Apps.all)
  in
  (* Every scheme commits exactly the baseline stream's work
     instructions; count them once per app, off the clock. *)
  let work = Hashtbl.create 32 in
  let baseline_work (app : Profile.t) =
    match Hashtbl.find_opt work app.name with
    | Some n -> n
    | None ->
      let n =
        Prog.Trace.Stream.fold
          (fun n ev -> if Prog.Trace.is_work ev then n + 1 else n)
          0
          (Run.stream (ctx_of app) Scheme.Baseline)
      in
      Hashtbl.replace work app.name n;
      n
  in
  let drained = Hashtbl.create 256 and sim_events = ref 0 in
  let call op (app, scheme, config) =
    let ctx = ctx_of app in
    ignore
      (Spans.span tr ~layer:"transform" ~name:"Critics.Run.transformed" ~op
         (fun () -> Run.transformed ctx scheme));
    Spans.span tr ~layer:"pipeline" ~name:"Critics.Run.stats" ~op (fun () ->
        Run.stats ~config ctx scheme)
  in
  let check op ((app : Profile.t), scheme, _) (st : Pipeline.Stats.t) =
    sim_events := !sim_events + st.committed_total;
    if Option.is_some tr then begin
      let events =
        match Hashtbl.find_opt drained (app.name, scheme) with
        | Some n -> n
        | None ->
          let n =
            Spans.span tr ~layer:"prog" ~name:"Critics.Run.stream" ~op
              (fun () ->
                Prog.Trace.Stream.fold
                  (fun n _ -> n + 1)
                  0
                  (Run.stream (ctx_of app) scheme))
          in
          Hashtbl.replace drained (app.name, scheme) n;
          Spans.add tr "prog.stream_events" (float_of_int n);
          n
      in
      let add k v = Spans.add tr k (float_of_int v) in
      add "pipeline.events" events;
      add "pipeline.sim_cycles" st.cycles;
      add "mem.l1i_misses" st.l1i.misses;
      add "mem.l1d_misses" st.l1d.misses;
      add "mem.l2_misses" st.l2.misses;
      add "bpu.mispredicts" st.bpu.mispredicts
    end;
    if st.committed_work = baseline_work app then Some (digest_of st) else None
  in
  let d = drive ?tr ops ~call ~check in
  let compiles =
    Hashtbl.fold (fun _ ctx n -> n + Run.transform_count ctx) ctxs 0
  in
  let pairs =
    Array.to_list ops
    |> List.filter_map (fun ((app : Profile.t), s, _) ->
           if s = Scheme.Baseline then None else Some (app.name, s))
    |> List.sort_uniq compare
  in
  Spans.add tr "transform.compiles" (float_of_int compiles);
  Spans.add tr "transform.useful_pairs" (float_of_int (List.length pairs));
  outcome ~setup_s ~kinds:(Array.map fst triples) ~sim_events:!sim_events
    ~extra:dbs
    ~post_checks:
      [ ( (if Option.is_some tr then
             "prepare: event counts match, pieces rebuild every context"
           else "prepare: every context's event count matches its path"),
          prepared ) ]
    d

(* ------------------------------ reload ----------------------------- *)

type expected = {
  e_ctx : Run.app_context;
  e_program : Prog.Program.t;
  e_base : Pipeline.Stats.t;
  e_crit : Pipeline.Stats.t;
}

let reload ?tr ~scale ~seed () =
  let apps = Array.of_list Workload.Apps.mobile in
  let order = rng seed 2 in
  let ops =
    Array.concat
      (List.init scale.rounds (fun _ ->
           let a = Array.copy apps in
           shuffle order a;
           a))
  in
  (* Set-up is the write path: a cold harness on a fresh store computes
     and persists every context, Critic program and Table I
     Baseline/Critic stats the ops will read back.  Like cells', it is
     seconds of CPU-bound work and runs once. *)
  let setup_s, (store, expected) =
    repeat_setup 1 (fun ~tick ->
        let store = Store.open_dir (fresh_dir "reload") in
        let h = Harness.create ~instrs:scale.instrs ~jobs:1 ~store () in
        let expected = Hashtbl.create 16 in
        Array.iter
          (fun (app : Profile.t) ->
            let e_ctx = Harness.context h app in
            let e_base = Harness.stats h app Scheme.Baseline in
            let e_crit = Harness.stats h app Scheme.Critic in
            let e_program = Run.transformed e_ctx Scheme.Critic in
            Hashtbl.replace expected app.name
              { e_ctx; e_program; e_base; e_crit };
            tick ())
          apps;
        (store, expected))
  in
  let s0 = Store.stats store in
  let call op app =
    let h = Harness.create ~instrs:scale.instrs ~jobs:1 ~store () in
    let ctx =
      Spans.span tr ~layer:"store" ~name:"Experiments.Harness.context" ~op
        (fun () -> Harness.context h app)
    in
    let base =
      Spans.span tr ~layer:"store" ~name:"Experiments.Harness.stats/baseline"
        ~op (fun () -> Harness.stats h app Scheme.Baseline)
    in
    let crit =
      Spans.span tr ~layer:"store" ~name:"Experiments.Harness.stats/critic" ~op
        (fun () -> Harness.stats h app Scheme.Critic)
    in
    let program =
      Spans.span tr ~layer:"store" ~name:"Critics.Run.transformed" ~op
        (fun () -> Run.transformed ctx Scheme.Critic)
    in
    (ctx, base, crit, program)
  in
  let check op (app : Profile.t) ((ctx : Run.app_context), base, crit, program)
      =
    if Option.is_some tr then
      ignore
        (Spans.span tr ~layer:"store" ~name:"Store.find" ~op (fun () ->
             Store.find store (Run.context_key ~instrs:scale.instrs app)));
    let e = Hashtbl.find expected app.name in
    let ok =
      same_program ctx.program e.e_ctx.program
      && ctx.seed = e.e_ctx.seed && ctx.path = e.e_ctx.path
      && ctx.event_count = e.e_ctx.event_count
      && ctx.db = e.e_ctx.db && base = e.e_base && crit = e.e_crit
      && same_program program e.e_program
    in
    if ok then Some (digest_of (app.name, base, crit)) else None
  in
  let d = drive ?tr ops ~call ~check in
  let s1 = Store.stats store in
  let add k v = Spans.add tr k (float_of_int v) in
  add "store.hits" (s1.hits - s0.hits);
  add "store.misses" (s1.misses - s0.misses);
  add "store.corrupt" (s1.corrupt - s0.corrupt);
  add "store.writes" (s1.writes - s0.writes);
  add "store.bytes" (Store.total_bytes store);
  let post_checks =
    [ ("store: no misses, writes or corrupt entries while reloading",
       s1.misses = s0.misses && s1.writes = s0.writes
       && s1.corrupt = s0.corrupt) ]
  in
  rm_rf (Store.dir store);
  outcome ~setup_s ~post_checks
    ~kinds:(Array.map (fun (app : Profile.t) -> app.name) ops)
    d

(* ------------------------------ ingest ----------------------------- *)

(* The client's upload list: every app's [users] uploads from a
   seed-chosen user range, in rounds of one upload per app, each round
   in a seed-chosen app order.  After the first [restart_rounds] rounds
   are acked the service restarts (close, then open on the same
   directory, which recovers them), and the client re-submits its whole
   list from the start, as a restarted [critics_cli serve] does: the
   acked prefix comes back as duplicates.  Ops index the list and say
   whether that upload was acked before the restart. *)
let ingest_plan ~scale ~seed =
  let u0 = seed mod 100_000 * scale.users in
  let apps = Array.of_list Workload.Apps.all in
  let st = rng seed 3 in
  let sends =
    Array.concat
      (List.init scale.users (fun j ->
           let round = Array.map (fun app -> (app, u0 + j)) apps in
           shuffle st round;
           round))
  in
  let acked = scale.restart_rounds * Array.length apps in
  let ops =
    Array.append
      (Array.init acked (fun i -> (i, false)))
      (Array.init (Array.length sends) (fun i -> (i, i < acked)))
  in
  (sends, acked, ops)

let ingest ?tr ~scale ~seed () =
  let sends, acked, ops = ingest_plan ~scale ~seed in
  let dir = work_dir "ingest" in
  (* Traced, the engine's IO seam counts the fsyncs it asks for. *)
  let fsyncs = ref 0 in
  let count_fsyncs ~op =
    if String.ends_with ~suffix:"fsync" op
       || String.ends_with ~suffix:"fsync_dir" op
    then incr fsyncs;
    Util.Atomic_io.Proceed
  in
  let inject = if Option.is_some tr then Some count_fsyncs else None in
  let engine = ref None in
  let e () = Option.get !engine in
  let counter name =
    Registry.counter_value
      (Registry.counter (Engine.runtime (e ())) ("service/" ^ name))
  in
  (* Runtime counters belong to one engine; bank them before a close. *)
  let close () =
    Option.iter
      (fun _ ->
        List.iter
          (fun name ->
            Spans.add tr ("service." ^ name) (float_of_int (counter name)))
          [ "appends"; "duplicates"; "rejects"; "checkpoints" ];
        Engine.close (e ());
        engine := None)
      !engine
  in
  let open_ () =
    let eng, r = Engine.open_ ?inject (Engine.config dir) in
    engine := Some eng;
    r.rec_uploads
  in
  (* Each set-up starts from a closed engine and an empty directory,
     made ready off the clock.  It is timed like the ops (below), so the
     durable open's system calls do not count, and scaled per 1000
     uploads generated, each thousand in its own span. *)
  let n = Array.length sends in
  let setup_s, uploads =
    repeat_setup ~clock:Host.Unblocked scale.setups
      ~before:(fun () ->
        close ();
        ignore (fresh_dir "ingest"))
      (fun ~tick ->
        let chunk c =
          if c > 0 then tick ();
          Spans.span tr ~layer:"workload" ~name:"Workload.Population.upload"
            ~op:0 (fun () ->
              Array.init
                (min 1000 (n - (c * 1000)))
                (fun j ->
                  let app, user = sends.((c * 1000) + j) in
                  Workload.Population.upload app ~user))
        in
        let uploads = Array.concat (List.init ((n + 999) / 1000) chunk) in
        ignore (open_ ());
        uploads)
  in
  fsyncs := 0;
  let recovered = ref (-1) in
  let restart id =
    if id = acked then begin
      close ();
      recovered := open_ ()
    end
  in
  let call op (i, _) =
    let u = uploads.(i) and e = e () in
    let before = if Option.is_some tr then counter "checkpoints" else 0 in
    let r =
      Spans.span tr ~layer:"service" ~name:"Service.Engine.ingest" ~op
        (fun () ->
          Engine.ingest e ~id:u.Workload.Population.id ~app:u.app
            ~payload:u.payload)
    in
    if Option.is_some tr && counter "checkpoints" > before then
      Spans.rename_last tr "Service.Engine.ingest/checkpoint";
    r
  in
  let side = Registry.create () in
  let check op (i, dup) r =
    if Option.is_some tr then begin
      let payload = uploads.(i).payload in
      match
        Spans.span tr ~layer:"telemetry" ~name:"Telemetry.Registry.of_bytes"
          ~op (fun () -> Registry.of_bytes payload)
      with
      | Ok reg ->
        Spans.span tr ~layer:"telemetry" ~name:"Telemetry.Registry.merge_into"
          ~op (fun () -> Registry.merge_into ~into:side reg)
      | Error _ -> ()
    end;
    match r with
    | Ok (ack : Engine.ack) when ack.ack_duplicate = dup ->
      Some
        (Digest.string
           (Printf.sprintf "%d/%d/%b" ack.ack_shard ack.ack_seq dup))
    | Ok _ | Error _ -> None
  in
  (* The engine fsyncs every acknowledged append, so an op's wall time
     is mostly the disk's, and on a virtual machine even the system
     calls' CPU time moves with the disk.  Ops are timed outside
     blocking system calls: the engine's own work.  The wall times stay
     in the outcome.  The host kernel is sampled every 100 ops, since
     one sample costs more than an op. *)
  let d =
    drive ?tr ~clock:Host.Unblocked ~every:100 ~after:restart ops ~call
      ~check
  in
  let distinct = Engine.uploads (e ()) = Array.length sends in
  let state = Engine.snapshot_bytes (e ()) in
  close ();
  Spans.add tr "service.fsyncs" (float_of_int !fsyncs);
  let fsck =
    match Engine.fsck dir with
    | Ok report -> Engine.clean ~strict:true report
    | Error _ -> false
  in
  rm_rf dir;
  outcome ~setup_s
    ~post_checks:
      [ (Printf.sprintf "service: the restart recovers the %d uploads acked"
           acked,
         !recovered = acked);
        ("service: Engine.uploads = distinct ids sent", distinct);
        ("service: fsck strict-clean after close", fsck) ]
    ~extra:state
    ~kinds:
      (Array.map
         (fun (i, dup) ->
           let (app : Profile.t), _ = sends.(i) in
           (if dup then "resend/" else "upload/") ^ app.name)
         ops)
    d

let all = [ "cells"; "reload"; "ingest" ]

let run name =
  match name with
  | "cells" -> cells
  | "reload" -> reload
  | "ingest" -> ingest
  | _ -> invalid_arg ("unknown workload " ^ name)
