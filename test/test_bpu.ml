(* Tests for the branch predictors. *)

module P = Bpu.Predictor

let test_perfect () =
  let p = P.create P.Perfect in
  for i = 0 to 99 do
    Alcotest.(check bool) "always correct" true
      (P.predict_and_update p ~pc:(i * 4) ~taken:(i mod 3 = 0))
  done

let test_static () =
  let p = P.create P.Static_taken in
  Alcotest.(check bool) "taken correct" true
    (P.predict_and_update p ~pc:0 ~taken:true);
  Alcotest.(check bool) "not-taken wrong" false
    (P.predict_and_update p ~pc:0 ~taken:false)

let test_two_level_learns_bias () =
  let p = P.create P.default_kind in
  (* strongly biased branch becomes predictable *)
  for _ = 1 to 2000 do
    ignore (P.predict_and_update p ~pc:0x40 ~taken:true)
  done;
  let before = (P.stats p).P.mispredicts in
  for _ = 1 to 1000 do
    ignore (P.predict_and_update p ~pc:0x40 ~taken:true)
  done;
  Alcotest.(check int) "no more mispredicts once trained" before
    (P.stats p).P.mispredicts

let test_two_level_learns_pattern () =
  let p = P.create P.default_kind in
  (* alternating pattern is captured by global history *)
  for i = 0 to 4000 do
    ignore (P.predict_and_update p ~pc:0x80 ~taken:(i mod 2 = 0))
  done;
  let s0 = (P.stats p).P.mispredicts in
  for i = 0 to 999 do
    ignore (P.predict_and_update p ~pc:0x80 ~taken:(i mod 2 = 1))
  done;
  let s1 = (P.stats p).P.mispredicts in
  Alcotest.(check bool) "pattern mostly predicted" true (s1 - s0 < 100)

let test_stats_counting () =
  let p = P.create P.Static_taken in
  ignore (P.predict_and_update p ~pc:0 ~taken:true);
  ignore (P.predict_and_update p ~pc:0 ~taken:false);
  let s = P.stats p in
  Alcotest.(check int) "lookups" 2 s.P.lookups;
  Alcotest.(check int) "mispredicts" 1 s.P.mispredicts

let test_entries_power_of_two () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Predictor.create: entries must be a power of two")
    (fun () ->
      ignore (P.create (P.Two_level { entries = 1000; history_bits = 8 })))

let trace_arb =
  QCheck.(list_of_size Gen.(int_range 1 300) (pair (int_bound 0xFFFF) bool))

(* Prediction is a pure function of the (pc, taken) history: replaying
   the same trace into a fresh predictor of the same kind reproduces
   the correctness stream bit for bit. *)
let prop_replay_deterministic =
  QCheck.Test.make ~name:"replay is deterministic" ~count:100
    QCheck.(pair (int_bound 2) trace_arb)
    (fun (k, trace) ->
      let kind =
        match k with
        | 0 -> P.Two_level { entries = 64; history_bits = 6 }
        | 1 -> P.Static_taken
        | _ -> P.Perfect
      in
      let run () =
        let p = P.create kind in
        List.map (fun (pc, taken) -> P.predict_and_update p ~pc ~taken) trace
      in
      run () = run ())

(* The gshare index folds [pc lsr 2] into [entries] buckets, so two pcs
   that differ by a multiple of [entries * 4] are indistinguishable:
   aliasing is bounded by the index width alone.  Shifting every pc in
   a trace by such a multiple cannot change a single prediction. *)
let prop_aliasing_bounded_by_index_width =
  QCheck.Test.make ~name:"aliasing bounded by index width" ~count:100
    QCheck.(triple (int_range 1 64) (int_bound 4) trace_arb)
    (fun (k, extra_history, trace) ->
      let entries = 64 in
      let kind = P.Two_level { entries; history_bits = 4 + extra_history } in
      let run shift =
        let p = P.create kind in
        List.map
          (fun (pc, taken) -> P.predict_and_update p ~pc:(pc + shift) ~taken)
          trace
      in
      run 0 = run (k * entries * 4))

let prop_perfect_never_mispredicts =
  QCheck.Test.make ~name:"perfect predictor never mispredicts" ~count:100
    trace_arb
    (fun trace ->
      let p = P.create P.Perfect in
      List.for_all
        (fun (pc, taken) -> P.predict_and_update p ~pc ~taken)
        trace
      && (P.stats p).P.mispredicts = 0)

let () =
  Alcotest.run "bpu"
    [
      ( "predictor",
        [
          Alcotest.test_case "perfect" `Quick test_perfect;
          Alcotest.test_case "static" `Quick test_static;
          Alcotest.test_case "learns bias" `Quick test_two_level_learns_bias;
          Alcotest.test_case "learns pattern" `Quick test_two_level_learns_pattern;
          Alcotest.test_case "stats" `Quick test_stats_counting;
          Alcotest.test_case "validation" `Quick test_entries_power_of_two;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_replay_deterministic;
            prop_aliasing_bounded_by_index_width;
            prop_perfect_never_mispredicts;
          ] );
    ]
