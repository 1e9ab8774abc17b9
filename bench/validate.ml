(* CI gates over bench and trace output, one subcommand per file kind.

   Usage:
     validate smoke RESULTS.json ENVELOPE.json
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

let trace path =
  (match Telemetry.Chrome_trace.validate (read "trace" path) with
  | Ok n -> check true "trace %s valid (%d events)" path n
  | Error msg -> check false "trace %s: %s" path msg);
  finish "trace"

let () =
  try
    match List.tl (Array.to_list Sys.argv) with
    | [ "smoke"; results; envelope ] -> smoke results envelope
    | [ "trace"; path ] -> trace path
    | _ ->
      prerr_endline
        "usage: validate smoke RESULTS.json ENVELOPE.json\n\
        \       validate trace TRACE.json";
      exit 2
  with Failure msg -> fatal "malformed input: %s" msg
