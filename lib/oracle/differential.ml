(* Differential harness: every check runs some pair of independent
   implementations against each other and reports the first divergence
   as an actionable message.

   The comparison chain is:

     Walk.path_for_instrs  ==  Interp's independent walk      (check_walk)
     Trace.expand          ==  Interp's commit-log entries    (check_trace)
     Cpu.run_stream over
       Stream.of_program   ==  Trace.expand minus CDP markers (check_cpu_trace)
     every pass's output   ==  source, per-block digests      (check_pipelines)

   so a green [check_prepared] means the golden model, the trace
   expander, the walk sampler, the cycle simulator and every compiler
   pass agree on the architectural behaviour of a program.  The
   simulator and the profiler read the live stream, in the batches
   production pulls, so a core that mishandles a batch boundary
   diverges here. *)

module T = Prog.Trace

let ( let* ) = Result.bind

(* ----------------------- configuration sweep ----------------------- *)

let configs : (string * Pipeline.Config.t) list =
  let open Pipeline.Config in
  [
    ("table_i", table_i);
    ("2x_fd", with_2x_fd table_i);
    ("4x_icache+backend_prio", with_backend_prio (with_4x_icache table_i));
    ("narrow2", { table_i with width = 2; fetch_bytes = 8 });
    ("free_cdp+efetch", { (with_efetch table_i) with cdp_decode_penalty = 0 });
    ("perfect_bp+clp", with_critical_load_prefetch (with_perfect_branch table_i));
    ("wrong_path", { table_i with wrong_path_fetch = true });
  ]

let sample_config seed =
  List.nth configs (abs seed mod List.length configs)

(* ------------------------------ checks ----------------------------- *)

let check_walk program ~seed ~instrs =
  let reference = Prog.Walk.path_for_instrs program ~seed ~instrs in
  let oracle = (Interp.run program ~seed ~instrs).Interp.path in
  if reference = oracle then Ok ()
  else if Array.length reference <> Array.length oracle then
    Error
      (Printf.sprintf "walk divergence: %d visits (Walk) vs %d (oracle)"
         (Array.length reference) (Array.length oracle))
  else begin
    let i = ref 0 in
    while reference.(!i) = oracle.(!i) do incr i done;
    Error
      (Printf.sprintf
         "walk divergence at visit %d: block %d (Walk) vs block %d (oracle)"
         !i reference.(!i) oracle.(!i))
  end

let check_trace program ~seed ~path =
  let trace = T.expand program ~seed path in
  let oracle = Interp.run_path program ~seed path in
  let entries = oracle.Interp.log.Commit_log.entries in
  let ne = Array.length entries and nt = Array.length trace in
  if ne <> nt then
    Error
      (Printf.sprintf "trace divergence: %d events (Trace) vs %d (oracle)" nt
         ne)
  else begin
    let err = ref None in
    let fail i fmt =
      Printf.ksprintf
        (fun msg ->
          if !err = None then
            err :=
              Some
                (Printf.sprintf "trace divergence at event %d (uid %d): %s" i
                   trace.(i).T.instr.Isa.Instr.uid msg))
        fmt
    in
    Array.iteri
      (fun i (e : Commit_log.entry) ->
        let ev = trace.(i) in
        if e.Commit_log.uid <> ev.T.instr.Isa.Instr.uid then
          fail i "uid %d (oracle)" e.Commit_log.uid;
        if e.Commit_log.pc <> ev.T.pc then
          fail i "pc %#x (Trace) vs %#x (oracle)" ev.T.pc e.Commit_log.pc;
        if e.Commit_log.block_id <> ev.T.block_id then
          fail i "block %d (Trace) vs %d (oracle)" ev.T.block_id
            e.Commit_log.block_id;
        let addr = Commit_log.mem_addr_of_entry e in
        if addr <> ev.T.mem_addr then
          fail i "mem addr %#x (Trace) vs %#x (oracle)" ev.T.mem_addr addr;
        if Commit_log.taken_of_entry e <> ev.T.taken then
          fail i "taken %b (Trace) vs %b (oracle)" ev.T.taken
            (Commit_log.taken_of_entry e))
      entries;
    match !err with
    | Some msg -> Error msg
    | None ->
      if oracle.Interp.work_instrs <> T.work_count trace then
        Error
          (Printf.sprintf "work count: %d (Trace) vs %d (oracle)"
             (T.work_count trace) oracle.Interp.work_instrs)
      else Ok oracle
  end

let check_cpu_trace ~config program ~seed ~path =
  let trace = T.expand program ~seed path in
  let expected =
    Array.of_seq
      (Seq.filter
         (fun (e : T.event) ->
           Isa.Instr.opcode e.T.instr <> Isa.Opcode.Cdp_switch)
         (Array.to_seq trace))
  in
  let nexp = Array.length expected in
  let pos = ref 0 in
  let err = ref None in
  let on_commit (c : Pipeline.Cpu.commit) =
    if !err = None then begin
      if c.Pipeline.Cpu.commit_seq <> !pos then
        err :=
          Some
            (Printf.sprintf "commit seq %d, expected %d"
               c.Pipeline.Cpu.commit_seq !pos)
      else if !pos >= nexp then
        err := Some (Printf.sprintf "extra retirement past %d events" nexp)
      else begin
        let want = expected.(!pos) in
        let got = c.Pipeline.Cpu.event in
        if got.T.seq <> want.T.seq then
          err :=
            Some
              (Printf.sprintf
                 "retirement %d: trace event %d (uid %d), expected event %d \
                  (uid %d)"
                 !pos got.T.seq got.T.instr.Isa.Instr.uid want.T.seq
                 want.T.instr.Isa.Instr.uid)
      end;
      incr pos
    end
  in
  let stats =
    Pipeline.Cpu.run_stream ~checks:true ~on_commit config (fun () ->
        T.Stream.of_program program ~seed path)
  in
  match !err with
  | Some msg -> Error ("cpu divergence: " ^ msg)
  | None ->
    if !pos <> nexp then
      Error
        (Printf.sprintf "cpu divergence: %d retirements, expected %d" !pos nexp)
    else begin
      let cdp =
        Array.fold_left
          (fun acc (e : T.event) ->
            if Isa.Instr.opcode e.T.instr = Isa.Opcode.Cdp_switch then acc + 1
            else acc)
          0 trace
      in
      let open Pipeline.Stats in
      if stats.committed_total <> Array.length trace then
        Error
          (Printf.sprintf "stats divergence: committed_total %d <> %d events"
             stats.committed_total (Array.length trace))
      else if stats.cdp_markers <> cdp then
        Error
          (Printf.sprintf "stats divergence: cdp_markers %d <> %d in trace"
             stats.cdp_markers cdp)
      else if stats.committed_work <> T.work_count trace then
        Error
          (Printf.sprintf "stats divergence: committed_work %d <> %d in trace"
             stats.committed_work (T.work_count trace))
      else if stats.stage_all.count <> stats.committed_total - stats.cdp_markers
      then
        Error
          (Printf.sprintf
             "stats divergence: stage count %d <> committed %d - markers %d"
             stats.stage_all.count stats.committed_total stats.cdp_markers)
      else Ok nexp
    end

(* Golden-model equivalence of two runs over the same walk. *)
let same_behaviour path (a : Interp.result) (b : Interp.result) =
  if Commit_log.arch_equivalent a.Interp.log b.Interp.log then Ok ()
  else
    match Commit_log.first_divergence a.Interp.log b.Interp.log with
    | None -> Error "oracle divergence (unlocated)"
    | Some d ->
      let where =
        if d.Commit_log.at < Array.length path then
          Printf.sprintf " (visit %d, block %d)" d.Commit_log.at
            path.(d.Commit_log.at)
        else ""
      in
      Error
        (Printf.sprintf "oracle divergence at %d%s: %s vs %s" d.Commit_log.at
           where d.Commit_log.expected d.Commit_log.got)

let check_transform_pair ~original ~transformed ~seed ~path =
  same_behaviour path
    (Interp.run_path original ~seed path)
    (Interp.run_path transformed ~seed path)

(* --------------------- whole-program check suite ------------------- *)

type prepared = {
  program : Prog.Program.t;
  seed : int;
  instrs : int;
  path : Prog.Walk.path;
  db : Profiler.Critic_db.t;
}

let prepare ?(instrs = 2_000) program ~seed =
  let path = Prog.Walk.path_for_instrs program ~seed ~instrs in
  let db =
    Profiler.Profile_run.profile_stream
      ~total_events:(T.length_of_path program path)
      (T.Stream.of_program program ~seed path)
  in
  { program; seed; instrs; path; db }

(* ---------------------- per-pass pipeline checks ------------------- *)

(* One node per distinct pass prefix: the program the prefix produced,
   and the prefixes one pass longer, keyed by the pass value itself. *)
type node = {
  out : Prog.Program.t;
  mutable next : (Transform.Pass.t * node) list;
}

let root p = { out = p.program; next = [] }

(* Every stage must stay equivalent to the *source* program: switch
   markers are dataflow- and architecture-transparent, so both the
   static per-block summaries and the golden model's commit digests
   are stage invariants.  Checking against the source rather than the
   previous stage pins divergence to the first pass that breaks.
   [source] is the source program's golden-model run. *)
let check_stage p ~source program =
  let* _ = Transform.Verify.check_pass (fun _ -> (program, ())) p.program in
  same_behaviour p.path source (Interp.run_path program ~seed:p.seed p.path)

(* Walk [passes] down from [node], applying and checking only the
   passes no earlier walk took from the same node.  Passes are matched
   physically, so a substitute pass that shares a real pass's name
   never reuses its result.  A pass that returns its input is not
   checked again. *)
let walk p ~source ~applications name env node passes =
  let rec go node = function
    | [] -> Ok node.out
    | (pass : Transform.Pass.t) :: rest -> (
      match List.assq_opt pass node.next with
      | Some child -> go child rest
      | None ->
        incr applications;
        let out, _ = pass.apply env node.out in
        let* () =
          if out == node.out then Ok ()
          else
            Result.map_error
              (Printf.sprintf "[%s/%s] %s" name pass.name)
              (check_stage p ~source out)
        in
        let child = { out; next = [] } in
        node.next <- (pass, child) :: node.next;
        go child rest)
  in
  go node passes

let check_pipeline p (name, env, passes) =
  let source = Interp.run_path p.program ~seed:p.seed p.path in
  walk p ~source ~applications:(ref 0) name env (root p) passes

type pipelines = {
  finals : (string * Prog.Program.t) list;
  applications : int;
}

(* Every scheme that transforms anything, read from the scheme table,
   so the oracle checks each scheme the bench simulates. *)
let transformed_schemes =
  List.filter
    (fun s -> not (List.is_empty (snd (Transform.Scheme.pipeline s))))
    Transform.Scheme.all

(* Rows under equal options share one environment and one prefix
   tree: Critic's four passes serve critic and opp16+critic, and its
   chain-select serves narrow.only and critic.reorder. *)
let run_pipelines p ~source =
  let applications = ref 0 in
  let trees = ref [] in
  let tree options =
    match List.assoc_opt options !trees with
    | Some t -> t
    | None ->
      let t = (Transform.Pass.env ~options p.db, root p) in
      trees := (options, t) :: !trees;
      t
  in
  let* finals =
    List.fold_left
      (fun acc s ->
        let* finals = acc in
        let options, passes = Transform.Scheme.pipeline s in
        let env, node = tree options in
        let name = Transform.Scheme.name s in
        let* final = walk p ~source ~applications name env node passes in
        Ok ((name, final) :: finals))
      (Ok []) transformed_schemes
  in
  Ok { finals = List.rev finals; applications = !applications }

let check_pipelines p =
  run_pipelines p ~source:(Interp.run_path p.program ~seed:p.seed p.path)

let in_context name r =
  Result.map_error (fun msg -> Printf.sprintf "[%s] %s" name msg) r

(* A final program differs from the source, and every pass that made it
   was checked against the source: what remains is its own trace and
   its simulation under every config. *)
let check_final ~configs p (name, program') =
  let* _ = in_context name (check_trace program' ~seed:p.seed ~path:p.path) in
  List.fold_left
    (fun acc (cname, config) ->
      let* total = acc in
      let* n =
        in_context (name ^ "/" ^ cname)
          (check_cpu_trace ~config program' ~seed:p.seed ~path:p.path)
      in
      Ok (total + n))
    (Ok 0) configs

type tally = {
  compared : int;
  simulated : int;
  pipelines : int;
  applications : int;
}

(* Equal programs behave identically under every check, so a final
   program equal to one already checked is credited, not re-checked.
   Equality is decided, never assumed: the same entry and equal blocks,
   compared physically first (a scheme that finds nothing returns its
   input, and sparse compilation shares untouched blocks) and
   structurally otherwise.  The layout is a function of the blocks. *)
let same_program a b =
  a == b
  || Prog.Program.entry a = Prog.Program.entry b
     && Prog.Program.num_blocks a = Prog.Program.num_blocks b
     &&
     let ba = Prog.Program.blocks a and bb = Prog.Program.blocks b in
     let rec go i =
       i < 0 || ((ba.(i) == bb.(i) || ba.(i) = bb.(i)) && go (i - 1))
     in
     go (Array.length ba - 1)

let check_prepared ?(configs = configs) ?variant_configs p =
  (* Baseline crosses the whole sweep; final programs default to a
     cut-down sweep (first + last entry) to keep fuzz loops fast,
     unless the caller asks for more. *)
  let variant_configs =
    match variant_configs with
    | Some cs -> cs
    | None -> (
      match configs with
      | [] -> []
      | [ c ] -> [ c ]
      | c :: rest -> [ c; List.nth rest (List.length rest - 1) ])
  in
  let* () =
    in_context "walk" (check_walk p.program ~seed:p.seed ~instrs:p.instrs)
  in
  let* source =
    in_context "baseline" (check_trace p.program ~seed:p.seed ~path:p.path)
  in
  (* Retirements per config the baseline was checked under. *)
  let* base =
    List.fold_left
      (fun acc (cname, config) ->
        let* counts = acc in
        let* n =
          in_context ("baseline/" ^ cname)
            (check_cpu_trace ~config p.program ~seed:p.seed ~path:p.path)
        in
        Ok ((config, n) :: counts))
      (Ok []) configs
  in
  let base_events = List.fold_left (fun t (_, n) -> t + n) 0 base in
  let* r = run_pipelines p ~source in
  let start =
    {
      compared = base_events;
      simulated = base_events;
      pipelines = List.length r.finals;
      applications = r.applications;
    }
  in
  (* Programs checked so far with their credit under
     [variant_configs]. *)
  let checked = ref [] in
  List.fold_left
    (fun acc ((name, program') as final) ->
      let* t = acc in
      if same_program program' p.program then
        (* The baseline's checks cover this program under every config
           it was checked under; any other config is simulated. *)
        List.fold_left
          (fun acc (cname, config) ->
            let* t = acc in
            match List.assoc_opt config base with
            | Some n -> Ok { t with compared = t.compared + n }
            | None ->
              let* n =
                in_context (name ^ "/" ^ cname)
                  (check_cpu_trace ~config p.program ~seed:p.seed
                     ~path:p.path)
              in
              Ok
                {
                  t with
                  compared = t.compared + n;
                  simulated = t.simulated + n;
                })
          (Ok t) variant_configs
      else
        match
          List.find_opt (fun (q, _) -> same_program q program') !checked
        with
        | Some (_, n) -> Ok { t with compared = t.compared + n }
        | None ->
          let* n = check_final ~configs:variant_configs p final in
          checked := (program', n) :: !checked;
          Ok { t with compared = t.compared + n; simulated = t.simulated + n })
    (Ok start) r.finals

let check_program ?configs ?variant_configs ?(instrs = 2_000) program ~seed =
  check_prepared ?configs ?variant_configs (prepare ~instrs program ~seed)

(* ----------------------------- corpus ------------------------------ *)

let corpus ~cases ~seed =
  let fuzz_configs =
    List.filter
      (fun (name, _) -> List.mem name [ "table_i"; "narrow2"; "wrong_path" ])
      configs
  in
  let fuzz i =
    let s = seed + i in
    ( Printf.sprintf "fuzz seed %d" s,
      check_program ~configs:fuzz_configs ~variant_configs:fuzz_configs
        ~instrs:500 (Workload.Fuzz.program_of_seed s) ~seed:((s * 7) + 1)
      |> Result.map_error (fun msg ->
             Printf.sprintf "%s\ngenome:\n%s" msg
               (Workload.Fuzz.to_string (Workload.Fuzz.spec_of_seed s))) )
  in
  let app (p : Workload.Profile.t) =
    ( p.name,
      check_program ~instrs:1_500 (Workload.Gen.program p)
        ~seed:(p.seed lxor 0x5EED) )
  in
  Seq.append (Seq.init cases fuzz) (Seq.map app (List.to_seq Workload.Apps.all))
