(* Tests for the domain pool: order preservation, exception
   propagation, edge cases (empty / singleton / more jobs than items),
   map_reduce, and reuse of one pool across batches.  Property tests
   compare Pool.map against List.map for arbitrary inputs and pool
   widths — the determinism guarantee the harness relies on. *)

let with_pool jobs f =
  let pool = Parallel.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) (fun () -> f pool)

let test_map_matches_sequential () =
  let xs = List.init 100 Fun.id in
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d preserves order" jobs)
            (List.map (fun x -> x * x) xs)
            (Parallel.Pool.map_list pool (fun x -> x * x) xs)))
    [ 1; 2; 3; 4; 8 ]

let test_edge_cases () =
  with_pool 4 (fun pool ->
      Alcotest.(check (list int)) "empty" []
        (Parallel.Pool.map_list pool succ []);
      Alcotest.(check (list int)) "singleton" [ 8 ]
        (Parallel.Pool.map_list pool succ [ 7 ]);
      Alcotest.(check (list int)) "more jobs than items" [ 2; 3 ]
        (Parallel.Pool.map_list pool succ [ 1; 2 ]))

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          Alcotest.check_raises
            (Printf.sprintf "jobs=%d propagates" jobs)
            (Failure "boom")
            (fun () ->
              ignore
                (Parallel.Pool.map_list pool
                   (fun x -> if x = 5 then failwith "boom" else x)
                   (List.init 10 Fun.id)));
          (* the pool stays usable after a failed batch *)
          Alcotest.(check (list int)) "pool survives" [ 1; 2; 3 ]
            (Parallel.Pool.map_list pool succ [ 0; 1; 2 ])))
    [ 1; 4 ]

let test_batch_failure_aggregates () =
  (* several failing jobs: every error surfaces, in submission order *)
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          let batch =
            List.init 6 (fun i () ->
                if i mod 2 = 1 then failwith (Printf.sprintf "boom-%d" i))
          in
          match Parallel.Pool.run pool batch with
          | () -> Alcotest.fail "batch with failures returned unit"
          | exception Parallel.Pool.Batch_failure errs ->
            Alcotest.(check (list string))
              (Printf.sprintf "jobs=%d collects all errors in order" jobs)
              [ "boom-1"; "boom-3"; "boom-5" ]
              (List.map
                 (function Failure m, _ -> m | e, _ -> Printexc.to_string e)
                 errs)))
    [ 1; 4 ];
  (* exactly one failure: the original exception, not a wrapper *)
  with_pool 4 (fun pool ->
      Alcotest.check_raises "single failure re-raised unchanged"
        (Failure "alone") (fun () ->
          Parallel.Pool.run pool
            [ (fun () -> ()); (fun () -> failwith "alone"); (fun () -> ()) ]))

let test_map_reduce () =
  with_pool 4 (fun pool ->
      let xs = List.init 1000 Fun.id in
      Alcotest.(check int) "sum of squares"
        (List.fold_left (fun acc x -> acc + (x * x)) 0 xs)
        (Parallel.Pool.map_reduce pool
           ~map:(fun x -> x * x)
           ~reduce:( + ) ~init:0 xs);
      (* left-to-right reduce order: string concat is not commutative *)
      Alcotest.(check string) "reduce is left-to-right" "0123456789"
        (Parallel.Pool.map_reduce pool ~map:string_of_int ~reduce:( ^ )
           ~init:"" (List.init 10 Fun.id)))

let test_default_jobs () =
  Alcotest.(check bool) "default positive" true (Parallel.default_jobs () >= 1)

let test_transient_map () =
  Alcotest.(check (list int)) "Parallel.map" [ 0; 2; 4 ]
    (Parallel.map ~jobs:2 (fun x -> 2 * x) [ 0; 1; 2 ])

(* ----------------------------- qcheck ----------------------------- *)

let prop_map_equals_list_map =
  QCheck.Test.make ~name:"Pool.map = List.map for any jobs/chunk" ~count:60
    QCheck.(
      triple (int_range 1 8) (int_range 1 7) (small_list small_int))
    (fun (jobs, chunk, xs) ->
      with_pool jobs (fun pool ->
          Parallel.Pool.map_list ~chunk pool (fun x -> (x * 7) - 1) xs
          = List.map (fun x -> (x * 7) - 1) xs))

let prop_map_reduce_equals_fold =
  QCheck.Test.make ~name:"map_reduce = fold_left over map" ~count:60
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (jobs, xs) ->
      with_pool jobs (fun pool ->
          Parallel.Pool.map_reduce pool ~map:succ ~reduce:( + ) ~init:0 xs
          = List.fold_left ( + ) 0 (List.map succ xs)))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_map_equals_list_map; prop_map_reduce_equals_fold ]

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "order preserved" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "edge cases" `Quick test_edge_cases;
          Alcotest.test_case "exceptions" `Quick test_exception_propagates;
          Alcotest.test_case "batch failure aggregation" `Quick
            test_batch_failure_aggregates;
          Alcotest.test_case "map_reduce" `Quick test_map_reduce;
          Alcotest.test_case "default_jobs" `Quick test_default_jobs;
          Alcotest.test_case "transient map" `Quick test_transient_map;
        ] );
      ("properties", qcheck_cases);
    ]
