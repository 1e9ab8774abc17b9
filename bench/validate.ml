(* CI gates over bench and trace output, one subcommand per file kind.

   Usage:
     validate smoke RESULTS.json ENVELOPE.json
     validate policy RESULTS.json
     validate trace TRACE.json

   smoke — BENCH_results.json against the checked-in envelope
   (bench/smoke_envelope.json):
   1. provenance: "dirty" is a boolean and "git" carries no "-dirty"
      suffix (that state belongs in the flag), and "store" names the
      store state the run met: "none", "cold" or "warm";
   2. every artifact id the envelope lists appears in the results;
   3. the run's total_ms is within the envelope's allowance (default
      1.3x) of its reference total_ms.  Regenerate the envelope from a
      fresh BENCH_results.json when the engine legitimately changes
      speed.

   policy — the --policy-sweep embed ("policy_lab") in
   BENCH_results.json:
   1. at least 3 apps appear, and every app has a cell for all
      4 replacement policies x 3 prefetchers;
   2. for at least one (app, prefetcher) the lru and srrip cells
      disagree on base_cycles or fetch_stall — a policy knob that never
      changes the simulation is wired to nothing;
   3. each app has an opportunity row with predictable <= misses.

   trace — an exported Chrome/Perfetto trace satisfies
   Telemetry.Chrome_trace.validate: every event carries
   name/ph/ts/pid/tid, counter and instant tracks are monotonically
   timestamped, and every async begin has a matching end.

   Every check prints "ok   ..." or "FAIL ...".  Exit 0 iff all pass;
   1 on any failed check, including a file that cannot be read or
   parsed or lacks a field; 2 on bad usage. *)

open Util.Json

let failures = ref 0

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if cond then Printf.printf "ok   %s\n" msg
      else begin
        Printf.printf "FAIL %s\n" msg;
        incr failures
      end)
    fmt

let exit_on_failures () =
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end

let finish what =
  exit_on_failures ();
  Printf.printf "%s: all checks passed\n" what

(* A failed check every later one depends on: report it and stop. *)
let fatal fmt =
  Printf.ksprintf
    (fun msg ->
      check false "%s" msg;
      exit_on_failures ();
      exit 1)
    fmt

let read label path =
  try Util.Atomic_io.read_file path
  with Sys_error msg -> fatal "%s: %s" label msg

let load label path =
  try parse (read label path)
  with Parse_error msg -> fatal "%s: %s does not parse: %s" label path msg

let smoke results_path envelope_path =
  let results = load "results" results_path in
  let envelope = load "envelope" envelope_path in
  let git = str (field "git" results) in
  (match member "dirty" results with
  | Some (Bool _) ->
    check
      (not (Filename.check_suffix git "-dirty"))
      "provenance: git %S clean with explicit dirty flag" git
  | Some _ -> check false "provenance: \"dirty\" is a boolean"
  | None -> check false "provenance: \"dirty\" flag present");
  (match member "store" results with
  | Some (Str s) ->
    check
      (List.mem s [ "none"; "cold"; "warm" ])
      "provenance: store state %S is none, cold or warm" s
  | Some _ | None -> check false "provenance: \"store\" state present");
  let present =
    List.map (fun a -> str (field "id" a)) (arr (field "artifacts" results))
  in
  List.iter
    (fun want ->
      let id = str want in
      check (List.mem id present) "artifact %S present" id)
    (arr (field "artifacts" envelope));
  let total = num (field "total_ms" results) in
  let reference = num (field "total_ms" envelope) in
  let allowance =
    Option.fold ~none:1.3 ~some:num (member "allowance" envelope)
  in
  check
    (total <= reference *. allowance)
    "total %.1f ms within %.0f%% of reference %.1f ms" total
    ((allowance -. 1.0) *. 100.0)
    reference;
  finish "bench smoke envelope"

let policies = [ "lru"; "srrip"; "brrip"; "trrip" ]
let prefetchers = [ "none"; "next_line"; "fetch_directed" ]

let policy results_path =
  let results = load "results" results_path in
  let pl =
    match member "policy_lab" results with
    | Some pl -> pl
    | None -> fatal "\"policy_lab\" embed present"
  in
  let cells = arr (field "cells" pl) in
  let opps = arr (field "opportunity" pl) in
  let apps =
    List.sort_uniq compare (List.map (fun c -> str (field "app" c)) cells)
  in
  check (List.length apps >= 3) "at least 3 apps swept (%d)"
    (List.length apps);
  let cell app p f =
    List.find_opt
      (fun c ->
        str (field "app" c) = app
        && str (field "policy" c) = p
        && str (field "prefetch" c) = f)
      cells
  in
  List.iter
    (fun app ->
      let missing =
        List.concat_map
          (fun p ->
            List.filter_map
              (fun f ->
                match cell app p f with
                | Some _ -> None
                | None -> Some (p ^ "+" ^ f))
              prefetchers)
          policies
      in
      check (missing = []) "app %S covers all %d policy x prefetcher cells%s"
        app
        (List.length policies * List.length prefetchers)
        (if missing = [] then ""
         else " (missing " ^ String.concat ", " missing ^ ")"))
    apps;
  (* The knob must be live: srrip replaces differently from true LRU on
     these working sets, so at least one cell's baseline must move. *)
  let lru_srrip_differ =
    List.exists
      (fun app ->
        List.exists
          (fun f ->
            match (cell app "lru" f, cell app "srrip" f) with
            | Some l, Some s ->
              num (field "base_cycles" l) <> num (field "base_cycles" s)
              || num (field "fetch_stall" l) <> num (field "fetch_stall" s)
            | _ -> false)
          prefetchers)
      apps
  in
  check lru_srrip_differ
    "lru and srrip disagree on at least one (app, prefetcher) cell";
  List.iter
    (fun app ->
      match List.find_opt (fun o -> str (field "app" o) = app) opps with
      | None -> check false "opportunity row for %S present" app
      | Some o ->
        let misses = num (field "misses" o) in
        let predictable = num (field "predictable" o) in
        check
          (predictable <= misses)
          "opportunity row for %S sane (%.0f predictable of %.0f misses)"
          app predictable misses)
    apps;
  finish "policy-lab embed"

let trace path =
  (match Telemetry.Chrome_trace.validate (read "trace" path) with
  | Ok n -> check true "trace %s valid (%d events)" path n
  | Error msg -> check false "trace %s: %s" path msg);
  finish "trace"

let () =
  try
    match List.tl (Array.to_list Sys.argv) with
    | [ "smoke"; results; envelope ] -> smoke results envelope
    | [ "policy"; results ] -> policy results
    | [ "trace"; path ] -> trace path
    | _ ->
      prerr_endline
        "usage: validate smoke RESULTS.json ENVELOPE.json\n\
        \       validate policy RESULTS.json\n\
        \       validate trace TRACE.json";
      exit 2
  with Failure msg -> fatal "malformed input: %s" msg
