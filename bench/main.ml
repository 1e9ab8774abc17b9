(* Benchmark harness.

   Regenerates every table and figure of the paper from one shared
   experiment harness and prints them (EXPERIMENTS.md discusses the
   output).  The harness evaluates its (app × scheme × config) jobs
   across a domain pool; `--jobs N` sets the width, default
   Domain.recommended_domain_count.  BENCH_results.json records what
   the run measured: its provenance and store state, and each
   artifact's wall clock and GC counters, so successive changes have a
   perf trajectory to compare against. *)

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

let json_results ~jobs ~store ~total_ms timings =
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
  Buffer.add_string b "  \"artifacts\": [\n";
  List.iteri
    (fun i t ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"id\": %S, \"wall_ms\": %.1f, \"minor_words\": %.0f, \
            \"major_words\": %.0f, \"top_heap_words\": %d }%s\n"
           t.id t.wall_ms t.minor_words t.major_words t.top_heap_words
           (if i = List.length timings - 1 then "" else ",")))
    timings;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let results_path = "BENCH_results.json"

let tables ~jobs ~ablation () =
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
  let h = Experiments.Harness.create ~instrs:!instrs ~jobs ?store:cache () in
  let timings = ref [] in
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
  (* The opt-in artifacts append after the paper's figure set, so the
     default artifact list, and so the recorded bench stdout, is
     unchanged without --ablation and is a prefix of the stdout with
     it. *)
  let entries =
    if ablation then Experiments.all @ Experiments.extra else Experiments.all
  in
  let t_start = Unix.gettimeofday () in
  (* Evaluate every (app × scheme × config) job of every artifact across
     the domain pool up front; the renders below read the memo tables
     (the sweeps batch their database variants there first). *)
  time "prewarm" (fun () ->
      Experiments.Harness.run_batch h
        (List.concat_map (fun (e : Experiments.entry) -> e.jobs ()) entries));
  List.iter
    (fun (e : Experiments.entry) ->
      Printf.printf "\n===== %s — %s =====\n" e.id e.title;
      (* Graceful degradation: one failing artifact is reported and the
         rest of the batch still completes. *)
      match time e.id (fun () -> print_string (e.render h)) with
      | () -> print_newline ()
      | exception exn ->
        let err = Util.Err.of_exn exn in
        failed := (e.id, err) :: !failed;
        Printf.printf "[bench] artifact %s FAILED: %s\n" e.id
          (Util.Err.to_string err))
    entries;
  let total_ms = 1000.0 *. (Unix.gettimeofday () -. t_start) in
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
    json_results ~jobs ~store:store_state ~total_ms (List.rev !timings)
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
    "usage: bench [--jobs N] [--instrs N] [--ablation]\n\n\
     Regenerates every table and figure.\n\n\
    \  --jobs N    domain-pool width (default: recommended domain count)\n\
    \  --instrs N  dynamic work instructions per app run (default: 100000)\n\
    \  --ablation  also regenerate the opt-in artifacts beyond the paper's\n\
    \              figure set (the nanopass pass-list ablations and the\n\
    \              front-end policy laboratory), after the default ones";
  exit 2

let () =
  let bad what v =
    Printf.eprintf "bench: bad %s value %S\n\n" what v;
    usage ()
  in
  let ablation = ref false in
  let jobs = ref (Parallel.default_jobs ()) in
  let set_int name r v =
    match int_of_string_opt v with
    | Some x when x >= 1 -> r := x
    | _ -> bad name v
  in
  let rec parse = function
    | [] -> ()
    | "--ablation" :: rest ->
      ablation := true;
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
  tables ~jobs:!jobs ~ablation:!ablation ()
