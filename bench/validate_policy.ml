(* CI gate over the --policy-sweep embed in BENCH_results.json.

   Usage: validate_policy.exe RESULTS.json

   Checks, in order:
   1. the file is well-formed JSON and carries a "policy_lab" object
      with "cells" and "opportunity" arrays;
   2. coverage: at least 3 apps appear, and every app has a cell for
      all 4 replacement policies x 3 prefetchers;
   3. the sweep is not a no-op: for at least one (app, prefetcher) the
      lru and srrip cells disagree on base_cycles or fetch_stall — a
      policy knob that never changes the simulation is wired to
      nothing;
   4. each app has an opportunity row with predictable <= misses.

   Exit 0 iff all pass. *)

open Util.Json

let policies = [ "lru"; "srrip"; "brrip"; "trrip" ]
let prefetchers = [ "none"; "next_line"; "fetch_directed" ]

let () =
  let results_path =
    match Sys.argv with
    | [| _; r |] -> r
    | _ ->
      prerr_endline "usage: validate_policy RESULTS.json";
      exit 2
  in
  let results =
    try parse (Util.Atomic_io.read_file results_path)
    with
    | Parse_error msg ->
      Printf.eprintf "FAIL results: %s does not parse: %s\n" results_path msg;
      exit 1
    | Sys_error msg ->
      Printf.eprintf "FAIL results: %s\n" msg;
      exit 1
  in
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
  let pl =
    match results with
    | Obj kvs when List.mem_assoc "policy_lab" kvs ->
      List.assoc "policy_lab" kvs
    | _ ->
      Printf.printf "FAIL \"policy_lab\" embed present\n";
      Printf.printf "1 check(s) failed\n";
      exit 1
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
      match
        List.find_opt (fun o -> str (field "app" o) = app) opps
      with
      | None -> check false "opportunity row for %S present" app
      | Some o ->
        let misses = num (field "misses" o) in
        let predictable = num (field "predictable" o) in
        check
          (predictable <= misses)
          "opportunity row for %S sane (%.0f predictable of %.0f misses)"
          app predictable misses)
    apps;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "policy-lab embed: all checks passed"
