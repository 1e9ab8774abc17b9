(* Benchmark runner: one workload per run, one process, jobs = 1.

     perfbench --workload W --seed N --seconds S --trace 0|1
     perfbench --self-test

   With --trace 0 it times the workload untraced and prints the
   end-to-end metrics.  With --trace 1 it runs the same seed twice in
   this process, first untraced (the reference for the tracing
   overhead), then with every public call wrapped in a span, and prints
   the per-layer metrics; the trace, the span list and the per-layer
   table are written under _perfbench/trace/.  Runs do a fixed number of
   ops whatever --seconds says (it is recorded, not used), so every run
   of a workload times the same multiset of ops.  The last stdout line
   is the JSON result; the lines before it are the human-readable
   report.  RATIONALE.md explains the workloads and metrics. *)

module W = Workloads

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Percentile [q] (0 to 1) of exact samples, interpolated between order
   statistics; 0 without samples, as for a layer a workload does not
   touch. *)
let percentile q a =
  if Array.length a = 0 then 0.
  else Util.Stats.percentile (q *. 100.) (Array.to_list a)

let rate a =
  float_of_int (Array.length a) /. (Util.Stats.sum (Array.to_list a) /. 1e3)

(* ------------------------- environment record ---------------------- *)

let first_line prog args =
  try
    let ic =
      Unix.open_process_args_in prog (Array.of_list (prog :: args))
    in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

(* Variables that change what the libraries or the runtime do.  The
   benchmark refuses to run with any of them set. *)
let tainting_env () =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv ->
         let name =
           match String.index_opt kv '=' with
           | Some i -> String.sub kv 0 i
           | None -> kv
         in
         name = "OCAMLRUNPARAM" || name = "CAMLRUNPARAM"
         || String.starts_with ~prefix:"CRITICS_" name)

(* A fixed-work loop, so a slow host shows beside its numbers. *)
let calibration_ms () =
  let t = Spans.now_ns () in
  let acc = ref 0 in
  for i = 1 to 200_000_000 do
    acc := !acc + (i land 7)
  done;
  ignore (Sys.opaque_identity !acc);
  Spans.ms_of_ns (Spans.now_ns () - t)

let env_record ~workload ~seed ~seconds ~trace =
  W.mkdir_p (Filename.concat W.work_root "work");
  let s = Util.Json.escape_string in
  Printf.sprintf
    "{\"workload\":\"%s\",\"seed\":%d,\"trace\":%b,\"seconds_requested\":%d,\
     \"nproc\":\"%s\",\"ocaml\":\"%s\",\"git\":\"%s\",\"work_fs\":\"%s\",\
     \"clock\":\"CLOCK_MONOTONIC (bechamel.monotonic_clock); ingest ops and \
     set-up less time blocked in system calls\",\
     \"instrs\":%d,\"jobs\":1,\"gc\":\"default\",\
     \"ocamlrunparam_and_critics_vars_unset\":%b,\"calibration_ms\":%.3f}"
    (s workload) seed trace seconds
    (s (first_line "nproc" []))
    (s Sys.ocaml_version)
    (s (first_line "git" [ "describe"; "--always"; "--dirty" ]))
    (s (first_line "stat" [ "-f"; "-c"; "%T"; W.work_root ]))
    W.full.instrs
    (tainting_env () = [])
    (calibration_ms ())

(* ------------------------------ output ----------------------------- *)

type metric = { name : string; value : float; unit : string; n : int }

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      Printf.printf "metric %-28s %16.6f %-8s n=%d\n" m.name m.value m.unit m.n)
    metrics;
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
          (json_num m.value) m.unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " ms)

let report name (o : W.outcome) =
  let n = Array.length o.wall_ms in
  let secs l = String.concat " " (List.map (Printf.sprintf "%.4f") l) in
  Printf.printf "workload %s: ops %d ops_failed %d digest %s\n" name n
    o.failed o.digest;
  Printf.printf "setup_s repetitions: %s (as measured: %s)\n" (secs o.setup_s)
    (secs o.setup_raw_s);
  Printf.printf "host kernel: median %.4f ms (reference %.1f ms)\n"
    (percentile 0.5 o.host_ms) Host.reference_ms;
  Printf.printf "unscaled (%s): ops_per_s %.4f op_p50_ms %.6f op_p90_ms %.6f\n"
    (match o.clock with
     | Host.Wall -> "monotonic clock"
     | Unblocked -> "outside blocking system calls")
    (rate o.raw_ms) (percentile 0.5 o.raw_ms) (percentile 0.9 o.raw_ms);
  (* The deepest tail the samples support has ten samples beyond it:
     p999 needs 10 000 ops. *)
  Printf.printf
    "as measured (monotonic clock): ops_per_s %.4f op_p50_ms %.6f \
     op_p90_ms %.6f%s n=%d\n"
    (rate o.wall_ms) (percentile 0.5 o.wall_ms) (percentile 0.9 o.wall_ms)
    (if n >= 10_000 then
       Printf.sprintf " op_p999_ms %.6f" (percentile 0.999 o.wall_ms)
     else "")
    n;
  (* What the re-sent duplicates do to the gated figures: the same ops
     without them. *)
  let firsts =
    Array.of_list
      (List.filteri
         (fun i _ -> not (String.starts_with ~prefix:"resend/" o.kinds.(i)))
         (Array.to_list o.lat_ms))
  in
  if Array.length firsts < n then
    Printf.printf
      "without re-sends: ops_per_s %.4f op_p50_ms %.6f op_p90_ms %.6f n=%d\n"
      (rate firsts) (percentile 0.5 firsts) (percentile 0.9 firsts)
      (Array.length firsts);
  List.iter
    (fun (what, ok) -> Printf.printf "check %s: %s\n" what (if ok then "ok" else "FAILED"))
    o.post_checks

let correct (o : W.outcome) =
  o.failed = 0 && List.for_all snd o.post_checks

let end_to_end (o : W.outcome) =
  let n = Array.length o.lat_ms in
  let peak_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  if n >= 10_000 then
    Printf.printf "metric %-28s %16.6f %-8s n=%d (printed, not gated)\n"
      "op_p999_ms" (percentile 0.999 o.lat_ms) "ms" n;
  [
    { name = "setup_s"; value = percentile 0.5 (Array.of_list o.setup_s);
      unit = "s";
      n = List.length o.setup_s };
    { name = "ops_per_s"; value = rate o.lat_ms; unit = "1/s"; n };
    { name = "op_p50_ms"; value = percentile 0.5 o.lat_ms; unit = "ms"; n };
    { name = "op_p90_ms"; value = percentile 0.9 o.lat_ms; unit = "ms"; n };
    { name = "peak_heap_mb"; value = peak_mb; unit = "MB"; n = 1 };
  ]

(* ------------------------------ traced ----------------------------- *)

let per_layer tr ~(reference : W.outcome) (o : W.outcome) =
  let c = Spans.count tr in
  let busy ?layer name = Util.Stats.sum (Spans.durations tr ?layer name) in
  let calls ?layer name =
    float_of_int (List.length (Spans.durations tr ?layer name))
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let p50 name = percentile 0.5 (Array.of_list (Spans.durations tr name)) in
  (* Wall time of the untraced pass's appends (first sends), fsync wait
     included: the figure a change to the engine's durability cost
     moves. *)
  let appends =
    List.filteri
      (fun i _ -> String.starts_with ~prefix:"upload/" reference.kinds.(i))
      (Array.to_list reference.wall_ms)
  in
  let wall_ops =
    if appends = [] then 0. else rate reference.wall_ms
  in
  let stats_ms =
    busy "Experiments.Harness.stats/baseline"
    +. busy "Experiments.Harness.stats/critic"
  in
  (* Ingest generates its uploads in spans of a thousand, several times;
     report one set-up's generation. *)
  let population = Spans.durations tr "Workload.Population.upload" in
  let traced_ops = rate o.lat_ms in
  [
    ("pipeline.calls", calls "Critics.Run.stats", "count");
    ("pipeline.busy_ms", busy "Critics.Run.stats", "ms");
    ("pipeline.events", c "pipeline.events", "count");
    ("pipeline.kevents_per_s",
     ratio (c "pipeline.events") (busy "Critics.Run.stats"), "kevent/s");
    ("pipeline.sim_cycles", c "pipeline.sim_cycles", "cycles");
    ("mem.l1i_misses", c "mem.l1i_misses", "count");
    ("mem.l1d_misses", c "mem.l1d_misses", "count");
    ("mem.l2_misses", c "mem.l2_misses", "count");
    ("bpu.mispredicts", c "bpu.mispredicts", "count");
    ("prog.stream_ms", busy "Critics.Run.stream", "ms");
    ("prog.stream_events", c "prog.stream_events", "count");
    ("prog.walk_ms", busy "Prog.Walk.path_for_instrs", "ms");
    ("transform.calls", calls ~layer:"transform" "Critics.Run.transformed",
     "count");
    ("transform.busy_ms", busy ~layer:"transform" "Critics.Run.transformed",
     "ms");
    ("transform.compiles", c "transform.compiles", "count");
    ("transform.useful_ratio",
     ratio (c "transform.useful_pairs") (c "transform.compiles"), "ratio");
    ("workload.gen_ms", busy "Workload.Gen.program", "ms");
    ("workload.static_instrs", c "workload.static_instrs", "count");
    ("workload.population_ms",
     ratio (Util.Stats.sum population) (float_of_int (List.length o.setup_s)),
     "ms");
    ("profiler.busy_ms", busy "Profiler.Profile_run.profile_stream", "ms");
    ("profiler.events", c "profiler.events", "count");
    ("profiler.kevents_per_s",
     ratio (c "profiler.events") (busy "Profiler.Profile_run.profile_stream"),
     "kevent/s");
    ("profiler.sites", c "profiler.sites", "count");
    ("store.context_ms", busy "Experiments.Harness.context", "ms");
    ("store.program_ms", busy ~layer:"store" "Critics.Run.transformed", "ms");
    ("store.stats_ms", stats_ms, "ms");
    ("store.find_ms", busy "Store.find", "ms");
    ("store.hits", c "store.hits", "count");
    ("store.misses", c "store.misses", "count");
    ("store.corrupt", c "store.corrupt", "count");
    ("store.hit_ratio",
     ratio (c "store.hits") (c "store.hits" +. c "store.misses"), "ratio");
    ("store.writes", c "store.writes", "count");
    ("store.bytes", c "store.bytes", "bytes");
    ("service.appends", c "service.appends", "count");
    ("service.duplicates", c "service.duplicates", "count");
    ("service.rejects", c "service.rejects", "count");
    ("service.checkpoints", c "service.checkpoints", "count");
    ("service.append_p50_ms", p50 "Service.Engine.ingest", "ms");
    ("service.checkpoint_p50_ms", p50 "Service.Engine.ingest/checkpoint",
     "ms");
    ("service.fsyncs", c "service.fsyncs", "count");
    ("service.wall_ops_per_s", wall_ops, "1/s");
    ("service.wall_append_p50_ms", percentile 0.5 (Array.of_list appends),
     "ms");
    ("telemetry.decode_ms", busy "Telemetry.Registry.of_bytes", "ms");
    ("telemetry.merge_ms", busy "Telemetry.Registry.merge_into", "ms");
    ("gc.minor_mwords", reference.gc_minor_words /. 1e6, "Mwords");
    ("gc.major_mwords", reference.gc_major_words /. 1e6, "Mwords");
    ("gc.major_collections", float_of_int reference.gc_major_collections,
     "count");
    ("trace.ops_per_s", traced_ops, "1/s");
    ("trace.overhead_ratio", ratio traced_ops (rate reference.lat_ms), "ratio");
  ]
  |> List.map (fun (name, value, unit) ->
         { name; value; unit; n = Array.length o.lat_ms })

let layer_table tr =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%-10s %8s %14s %14s\n" "layer" "calls" "busy_ms" "self_ms";
  List.iter
    (fun (r : Spans.layer_row) ->
      Printf.bprintf b "%-10s %8d %14.3f %14.3f\n" r.layer r.calls r.busy_ms
        r.self_ms)
    (Spans.layers tr);
  Buffer.contents b

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* Export the spans, validate the trace, and write the per-layer
   table beside it.  Returns whether the trace validated. *)
let export tr ~name ~seed metrics =
  let dir = Filename.concat W.work_root "trace" in
  W.mkdir_p dir;
  let base = Filename.concat dir (Printf.sprintf "%s-seed%d" name seed) in
  let ct = Spans.to_chrome tr in
  Telemetry.Chrome_trace.write_file ct (base ^ ".trace.json");
  let json = In_channel.with_open_bin (base ^ ".trace.json") In_channel.input_all in
  let valid = Telemetry.Chrome_trace.validate json in
  write_file (base ^ ".spans.tsv") (Spans.to_tsv tr);
  let table = layer_table tr in
  write_file (base ^ ".layers.txt")
    (table
    ^ String.concat ""
        (List.map
           (fun m -> Printf.sprintf "%-28s %16.6f %s\n" m.name m.value m.unit)
           metrics));
  print_string table;
  (match valid with
  | Ok n ->
    Printf.printf "trace %s.trace.json: %d events, Chrome_trace.validate ok\n"
      base n
  | Error msg -> Printf.printf "trace %s.trace.json: INVALID: %s\n" base msg);
  Result.is_ok valid

(* ------------------------------ main ------------------------------- *)

let run_workload ~name ~seed ~trace =
  let run = W.run name in
  if not trace then begin
    let o = run ?tr:None ~scale:W.full ~seed () in
    report name o;
    let metrics = end_to_end o in
    print_result ~correct:(correct o) ~attempted:(Array.length o.lat_ms)
      ~failed:o.failed metrics
  end
  else begin
    let reference = run ?tr:None ~scale:W.full ~seed () in
    report (name ^ " (untraced reference)") reference;
    Gc.compact ();
    let tr = Spans.create () in
    let o = run ~tr ~scale:W.full ~seed () in
    report (name ^ " (traced)") o;
    let metrics = per_layer tr ~reference o in
    let valid = export tr ~name ~seed metrics in
    let same = reference.digest = o.digest in
    Printf.printf "check traced digest = untraced digest: %s\n"
      (if same then "ok" else "FAILED");
    print_result
      ~correct:(correct reference && correct o && valid && same)
      ~attempted:(Array.length o.lat_ms) ~failed:o.failed metrics
  end

(* Seed neutrality and cell coverage, at a small scale. *)
let self_test () =
  let ok = ref true in
  let expect what cond =
    Printf.printf "%s: %s\n%!" what (if cond then "ok" else "FAILED");
    if not cond then ok := false
  in
  let h =
    Experiments.Harness.create ~instrs:W.tiny.instrs ~jobs:1 ~telemetry:1024 ()
  in
  Experiments.prewarm h;
  let harness = List.map fst (Experiments.Harness.telemetry_probes h) in
  let ours = List.map fst (W.cell_triples ()) in
  expect
    (Printf.sprintf "cells: %d triples = the %d cells Experiments.all prewarms"
       (List.length ours) (List.length harness))
    (ours = harness);
  List.iter
    (fun name ->
      let a = W.run name ?tr:None ~scale:W.tiny ~seed:1 () in
      let b = W.run name ?tr:None ~scale:W.tiny ~seed:2 () in
      expect
        (Printf.sprintf "%s: seeds 1 and 2 give %d and %d ops of one kind multiset"
           name (Array.length a.kinds) (Array.length b.kinds))
        (sorted a.kinds = sorted b.kinds);
      expect (name ^ ": every op and check passes") (correct a && correct b);
      expect (name ^ ": seeds 1 and 2 give different results")
        (a.digest <> b.digest);
      if name = "cells" then
        expect
          (Printf.sprintf "cells: simulated events %d and %d within 1%%"
             a.sim_events b.sim_events)
          (abs (a.sim_events - b.sim_events) * 100
          <= max a.sim_events b.sim_events))
    W.all;
  W.rm_rf (Filename.concat W.work_root "work");
  exit (if !ok then 0 else 1)

let usage () =
  prerr_endline
    ("usage: perfbench --workload {" ^ String.concat "|" W.all
   ^ "} --seed N --seconds S --trace 0|1\n       perfbench --self-test");
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--self-test" ] then self_test ();
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      parse ((k, v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k =
    match int_of_string_opt (get k) with
    | Some n when n >= 0 -> n
    | _ -> usage ()
  in
  let name = get "--workload" in
  if not (List.mem name W.all) then usage ();
  let seed = int "--seed" and seconds = int "--seconds" in
  let trace =
    match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  (match tainting_env () with
  | [] -> ()
  | vars ->
    Printf.eprintf "perfbench: refusing to run with %s set\n"
      (String.concat ", " vars);
    exit 2);
  Printf.printf "env %s\n%!" (env_record ~workload:name ~seed ~seconds ~trace);
  run_workload ~name ~seed ~trace;
  W.rm_rf (Filename.concat W.work_root "work")
