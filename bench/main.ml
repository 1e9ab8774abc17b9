(* Benchmark harness.

   Regenerates every table and figure of the paper from one shared
   experiment harness and prints them — this is the output
   recorded in bench_output.txt / EXPERIMENTS.md.  The harness evaluates
   its (app × scheme × config) jobs across a domain pool; `--jobs N`
   sets the width, default Domain.recommended_domain_count.
   Per-artifact wall-clock timings are written to BENCH_results.json so
   successive PRs have a perf trajectory to compare against. *)

let instrs = ref 100_000

(* One artifact's measurement: wall clock plus the GC's view of the
   work — words promoted to the major heap while the artifact ran, and
   the process-wide heap high-water mark when it finished. *)
type artifact_timing = {
  id : string;
  wall_ms : float;
  minor_words : float;
  major_words : float;
  top_heap_words : int;
}

let git_describe () =
  try
    let ic =
      Unix.open_process_in "git describe --always --dirty 2>/dev/null"
    in
    let line = try input_line ic with End_of_file -> "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown")
  with _ -> "unknown"

(* Provenance split: the "git" field carries the clean description and
   "dirty" states working-tree state explicitly, so downstream diffing
   of BENCH_results.json never has to parse a "-dirty" suffix. *)
let provenance () =
  let raw = git_describe () in
  if Filename.check_suffix raw "-dirty" then
    (Filename.chop_suffix raw "-dirty", true)
  else (raw, false)

(* Per-artifact histogram summaries (telemetry mode): the merged
   registry of the artifact's job set, histograms only, per-chain-id
   series elided (one line per chain id would swamp the file). *)
let telemetry_json registry =
  let entries =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Telemetry.Registry.Histogram_v { count; sum; max; p50; p90; p99 }
          when not
                 (String.length name >= 9 && String.sub name 0 9 = "chain/id/")
          ->
          Some
            (Printf.sprintf
               "\"%s\": { \"count\": %d, \"sum\": %d, \"max\": %d, \
                \"p50\": %d, \"p90\": %d, \"p99\": %d }"
               (Util.Json.escape_string name)
               count sum max p50 p90 p99)
        | _ -> None)
      (Telemetry.Registry.snapshot registry)
  in
  "{ " ^ String.concat ", " entries ^ " }"

let json_results ~jobs ~store ~total_ms ?(telemetry = []) ?(fetch = [])
    ?cache ?policy_lab timings =
  let gc = Gc.quick_stat () in
  let git, dirty = provenance () in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"git\": %S,\n" git);
  Buffer.add_string b (Printf.sprintf "  \"dirty\": %b,\n" dirty);
  Buffer.add_string b (Printf.sprintf "  \"jobs\": %d,\n" jobs);
  Buffer.add_string b (Printf.sprintf "  \"instrs\": %d,\n" !instrs);
  Buffer.add_string b (Printf.sprintf "  \"store\": %S,\n" store);
  Buffer.add_string b (Printf.sprintf "  \"total_ms\": %.1f,\n" total_ms);
  Buffer.add_string b
    (Printf.sprintf "  \"top_heap_words\": %d,\n" gc.Gc.top_heap_words);
  (match cache with
  | Some json -> Buffer.add_string b (Printf.sprintf "  \"cache\": %s,\n" json)
  | None -> ());
  (* Per-cell policy-sweep results (--policy-sweep): the machine-readable
     twin of the policy-lab tables, for CI gating and cross-PR diffing. *)
  (match policy_lab with
  | Some json ->
    Buffer.add_string b (Printf.sprintf "  \"policy_lab\": %s,\n" json)
  | None -> ());
  Buffer.add_string b "  \"artifacts\": [\n";
  List.iteri
    (fun i t ->
      let telem =
        match List.assoc_opt t.id telemetry with
        | Some json -> Printf.sprintf ", \"telemetry\": %s" json
        | None -> ""
      in
      (* Fetch bandwidth over the artifact's job set: absent for
         artifacts without simulation jobs. *)
      let fetch_json =
        match List.assoc_opt t.id fetch with
        | Some (bytes, cycles) when cycles > 0 ->
          Printf.sprintf
            ", \"fetch_bytes\": %d, \"bytes_per_cycle\": %.3f" bytes
            (float_of_int bytes /. float_of_int cycles)
        | _ -> ""
      in
      Buffer.add_string b
        (Printf.sprintf
           "    { \"id\": %S, \"wall_ms\": %.1f, \"minor_words\": %.0f, \
            \"major_words\": %.0f, \"top_heap_words\": %d%s%s }%s\n"
           t.id t.wall_ms t.minor_words t.major_words t.top_heap_words telem
           fetch_json
           (if i = List.length timings - 1 then "" else ",")))
    timings;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let results_path = "BENCH_results.json"

let tables ~jobs ~telemetry ~ablation ~policy_sweep () =
  Printf.printf
    "CritICs reproduction — regenerating every table and figure\n\
     (%d work instructions per app run; see EXPERIMENTS.md for the\n\
     paper-vs-measured discussion)\n"
    !instrs;
  (* Prepared-context store: attached only when CRITICS_CACHE_DIR is
     set, so a default run stays hermetic and a cache-enabled repeat run
     skips the prewarm wall (contexts and completed simulations reload
     from disk). *)
  let cache = Store.open_default () in
  (match cache with
  | Some st ->
    Printf.eprintf "[bench] cache: %s (%d entries)\n%!" (Store.dir st)
      (Store.entry_count st)
  | None -> ());
  let h =
    Experiments.Harness.create ~instrs:!instrs ~jobs
      ?telemetry:(if telemetry then Some 1024 else None)
      ?store:cache ()
  in
  let timings = ref [] in
  let telemetry_summaries = ref [] in
  let fetch_summaries = ref [] in
  let failed = ref [] in
  let time id f =
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
    let g1 = Gc.quick_stat () in
    let t =
      {
        id;
        wall_ms;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major_words = g1.Gc.major_words -. g0.Gc.major_words;
        top_heap_words = g1.Gc.top_heap_words;
      }
    in
    timings := t :: !timings;
    r
  in
  (* Opt-in artifacts append after the paper's figure set, each behind
     its own flag (--ablation: nanopass; --policy-sweep: policy-lab) so
     the default artifact list — and so the recorded bench stdout — is
     unchanged without them, and each CI smoke job pays only for the
     artifact it gates. *)
  let extra_entries =
    List.filter
      (fun (e : Experiments.entry) ->
        match e.id with
        | "nanopass" -> ablation
        | "policy-lab" -> policy_sweep
        | _ -> ablation)
      Experiments.extra
  in
  let entries = Experiments.all @ extra_entries in
  let t_start = Unix.gettimeofday () in
  (* Evaluate every (app × scheme × config) job of every artifact across
     the domain pool up front; the per-artifact renders below then read
     from the memo tables (plus their own custom analyses). *)
  time "prewarm" (fun () ->
      Experiments.Harness.run_batch h
        (List.concat_map (fun (e : Experiments.entry) -> e.jobs ()) entries));
  List.iter
    (fun (e : Experiments.entry) ->
      Printf.printf "\n===== %s — %s =====\n" e.id e.title;
      (* Graceful degradation: one failing artifact is reported and the
         rest of the batch still completes. *)
      match time e.id (fun () -> print_string (e.render h)) with
      | () ->
        print_newline ();
        fetch_summaries :=
          (e.id, Experiments.Harness.fetch_totals_for h (e.jobs ()))
          :: !fetch_summaries;
        if telemetry then begin
          let reg = Experiments.Harness.telemetry_registry_for h (e.jobs ()) in
          if not (Telemetry.Registry.is_empty reg) then
            telemetry_summaries :=
              (e.id, telemetry_json reg) :: !telemetry_summaries
        end
      | exception exn ->
        let err = Util.Err.of_exn exn in
        failed := (e.id, err) :: !failed;
        Printf.printf "[bench] artifact %s FAILED: %s\n" e.id
          (Util.Err.to_string err))
    entries;
  let total_ms = 1000.0 *. (Unix.gettimeofday () -. t_start) in
  let cache_json =
    Option.map
      (fun st ->
        let reg = Telemetry.Registry.create () in
        Store.publish st reg;
        Telemetry.Registry.to_json reg)
      cache
  in
  (* The embed re-runs Policy_lab.run; with the artifact freshly
     rendered every simulation is a memo hit, so this is a read-out,
     not a second sweep. *)
  let policy_lab_json =
    if policy_sweep && not (List.mem_assoc "policy-lab" !failed) then
      match Experiments.Policy_lab.to_json (Experiments.Policy_lab.run h) with
      | json -> Some json
      | exception _ -> None
    else None
  in
  (* The store state the run met, named in the results header from its
     own lookups: warm when every lookup hit, cold when any missed.  A
     store filled by another commit or budget misses on every key, so
     it is cold however many entries it holds. *)
  let store_state =
    match cache with
    | None -> "none"
    | Some st -> if (Store.stats st).Store.misses = 0 then "warm" else "cold"
  in
  let json =
    json_results ~jobs ~store:store_state ~total_ms
      ~telemetry:(List.rev !telemetry_summaries)
      ~fetch:(List.rev !fetch_summaries) ?cache:cache_json
      ?policy_lab:policy_lab_json (List.rev !timings)
  in
  (* Crash-safe write: a kill mid-write must never leave a truncated
     BENCH_results.json that [validate smoke] would half-parse. *)
  Util.Atomic_io.write results_path json;
  Printf.eprintf "[bench] jobs=%d total=%.1fs — timings in %s\n" jobs
    (total_ms /. 1000.0) results_path;
  (match cache with
  | Some st ->
    let s = Store.stats st in
    Printf.eprintf
      "[bench] cache: %d hit / %d miss / %d write / %d corrupt — %d \
       entries, %d bytes\n"
      s.Store.hits s.Store.misses s.Store.writes s.Store.corrupt
      (Store.entry_count st) (Store.total_bytes st)
  | None -> ());
  if !failed <> [] then begin
    Printf.eprintf "[bench] %d artifact(s) failed:\n" (List.length !failed);
    List.iter
      (fun (id, err) ->
        Printf.eprintf "[bench]   %s: %s\n" id (Util.Err.to_string err))
      (List.rev !failed);
    exit 1
  end

let usage () =
  prerr_endline
    "usage: bench [--jobs N] [--instrs N] [--telemetry] [--ablation] \
     [--policy-sweep]\n\n\
     Regenerates every table and figure.\n\n\
    \  --jobs N    domain-pool width (default: recommended domain count)\n\
    \  --instrs N  dynamic work instructions per app run (default: 100000)\n\
    \  --telemetry attach cycle-attribution probes to every simulation and\n\
    \              embed per-artifact histogram summaries in\n\
    \              BENCH_results.json (off by default; stats are\n\
    \              bit-identical either way)\n\
    \  --ablation  also regenerate the opt-in artifacts beyond the paper's\n\
    \              figure set (the nanopass pass-list ablations); the\n\
    \              default artifact list is unchanged without it\n\
    \  --policy-sweep  also run the front-end policy laboratory (i-cache\n\
    \              replacement x instruction-prefetch x app) and embed the\n\
    \              per-cell results as \"policy_lab\" in BENCH_results.json";
  exit 2

let () =
  let bad what v =
    Printf.eprintf "bench: bad %s value %S\n\n" what v;
    usage ()
  in
  let telemetry = ref false in
  let ablation = ref false in
  let policy_sweep = ref false in
  let jobs = ref (Parallel.default_jobs ()) in
  let set_int name r v =
    match int_of_string_opt v with
    | Some x when x >= 1 -> r := x
    | _ -> bad name v
  in
  let rec parse = function
    | [] -> ()
    | "--telemetry" :: rest ->
      telemetry := true;
      parse rest
    | "--ablation" :: rest ->
      ablation := true;
      parse rest
    | "--policy-sweep" :: rest ->
      policy_sweep := true;
      parse rest
    | "--jobs" :: n :: rest ->
      set_int "--jobs" jobs n;
      parse rest
    | "--instrs" :: n :: rest ->
      set_int "--instrs" instrs n;
      parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: rest
      when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
      set_int "--jobs" jobs (String.sub arg 7 (String.length arg - 7));
      parse rest
    | arg :: rest
      when String.length arg > 9 && String.sub arg 0 9 = "--instrs=" ->
      set_int "--instrs" instrs (String.sub arg 9 (String.length arg - 9));
      parse rest
    | arg :: _ ->
      Printf.eprintf "bench: unknown argument %S\n\n" arg;
      usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  tables ~jobs:!jobs ~telemetry:!telemetry ~ablation:!ablation
    ~policy_sweep:!policy_sweep ()
