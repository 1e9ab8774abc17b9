(* CI gate over BENCH_results.json.

   Usage: validate_smoke.exe RESULTS.json ENVELOPE.json

   Checks, in order:
   1. both files are well-formed JSON (full parse, not grep);
   2. every artifact id the envelope lists appears in the results;
   3. the run's total_ms is within [allowance] (default 1.3x) of the
      envelope's reference total_ms.

   Exit 0 iff all pass.  The envelope is checked in
   (bench/smoke_envelope.json) and records the reference machine's
   smoke-budget run; regenerate it by copying the fields from a fresh
   BENCH_results.json when the engine legitimately changes speed. *)

open Util.Json

let () =
  let results_path, envelope_path =
    match Sys.argv with
    | [| _; r; e |] -> (r, e)
    | _ ->
      prerr_endline "usage: validate_smoke RESULTS.json ENVELOPE.json";
      exit 2
  in
  let load label path =
    try parse (Util.Atomic_io.read_file path)
    with
    | Parse_error msg ->
      Printf.eprintf "FAIL %s: %s does not parse: %s\n" label path msg;
      exit 1
    | Sys_error msg ->
      Printf.eprintf "FAIL %s: %s\n" label msg;
      exit 1
  in
  let results = load "results" results_path in
  let envelope = load "envelope" envelope_path in
  let failures = ref 0 in
  let check cond fmt =
    Printf.ksprintf
      (fun msg ->
        if cond then Printf.printf "ok   %s\n" msg
        else begin
          Printf.printf "FAIL %s\n" msg;
          incr failures
        end)
      fmt
  in
  (* Provenance: "git" must be a string; new-form results also carry an
     explicit boolean "dirty" flag, in which case the description must
     be clean (no "-dirty" suffix — that state belongs in the flag).
     Old-form results (no "dirty" field, possibly a "-dirty" suffix) are
     still accepted so the gate can validate archived files. *)
  let git = str (field "git" results) in
  let has_dirty_suffix =
    let suf = "-dirty" in
    let lg = String.length git and ls = String.length suf in
    lg >= ls && String.sub git (lg - ls) ls = suf
  in
  (match results with
  | Obj kvs when List.mem_assoc "dirty" kvs ->
    (match List.assoc "dirty" kvs with
    | Bool _ ->
      check (not has_dirty_suffix)
        "provenance: git %S clean with explicit dirty flag" git
    | _ -> check false "provenance: \"dirty\" is a boolean")
  | _ -> check true "provenance: legacy git field %S accepted" git);
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
    match envelope with
    | Obj kvs when List.mem_assoc "allowance" kvs ->
      num (field "allowance" envelope)
    | _ -> 1.3
  in
  check
    (total <= reference *. allowance)
    "total %.1f ms within %.0f%% of reference %.1f ms" total
    ((allowance -. 1.0) *. 100.0)
    reference;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "bench smoke envelope: all checks passed"
