(* Unit and property tests for the Util library. *)

module Rng = Util.Rng
module Stats = Util.Stats
module Dist = Util.Dist

let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ------------------------------- Rng ------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool)
    "different seeds differ" false
    (Rng.bits64 a = Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let child = Rng.split a in
  (* Draws from the child do not change the parent's future. *)
  let parent_copy = Rng.copy a in
  ignore (Rng.bits64 child);
  ignore (Rng.bits64 child);
  check Alcotest.int64 "parent unaffected by child" (Rng.bits64 parent_copy)
    (Rng.bits64 a)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_uniformity () =
  let rng = Rng.create 5 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      Alcotest.(check bool)
        "bucket within 5% of uniform" true
        (abs (c - expected) < expected / 20))
    buckets

let test_rng_chance_extremes () =
  let rng = Rng.create 6 in
  Alcotest.(check bool) "p=0 never" false (Rng.chance rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.chance rng 1.0)

let test_rng_geometric_mean () =
  let rng = Rng.create 8 in
  let n = 50_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Rng.geometric rng 0.5
  done;
  let mean = float_of_int !total /. float_of_int n in
  (* mean of Geom(0.5) failures = 1.0 *)
  Alcotest.(check bool) "geometric mean near 1" true (abs_float (mean -. 1.0) < 0.05)

let test_weighted_index () =
  let rng = Rng.create 9 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Rng.weighted_index rng [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "heaviest bucket dominates" true
    (counts.(2) > counts.(1) && counts.(1) > counts.(0))

(* ------------------------------ Stats ----------------------------- *)

let test_mean () =
  checkf "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  checkf "empty mean" 0.0 (Stats.mean [])

let test_percentile () =
  checkf "median" 2.0 (Stats.percentile 50.0 [ 1.0; 2.0; 3.0 ]);
  checkf "min" 1.0 (Stats.percentile 0.0 [ 3.0; 1.0; 2.0 ]);
  checkf "max" 3.0 (Stats.percentile 100.0 [ 3.0; 1.0; 2.0 ])

(* ------------------------------- Dist ----------------------------- *)

let test_histogram () =
  let h = Dist.Histogram.create () in
  Dist.Histogram.add h 3;
  Dist.Histogram.add h 3;
  Dist.Histogram.addn h 5 4;
  check Alcotest.int "count" 6 (Dist.Histogram.count h);
  check Alcotest.int "get 3" 2 (Dist.Histogram.get h 3);
  check Alcotest.int "max value" 5 (Dist.Histogram.max_value h);
  check
    Alcotest.(list (pair int int))
    "bins sorted" [ (3, 2); (5, 4) ] (Dist.Histogram.bins h);
  checkf "mean" ((6.0 +. 20.0) /. 6.0) (Dist.Histogram.mean h)

(* --------------------------- Text_table --------------------------- *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let s =
    Util.Text_table.render ~header:[ "a"; "b" ] [ [ "x"; "1" ]; [ "yy" ] ]
  in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.sub s 0 1 = "a");
  (* the ragged row is padded rather than raising *)
  Alcotest.(check bool) "mentions yy" true (contains ~needle:"yy" s)

let test_bar_chart () =
  let c = Util.Text_table.bar_chart [ ("a", 0.1); ("bb", -0.05); ("c", 0.0) ] in
  Alcotest.(check bool) "labels present" true
    (contains ~needle:"bb" c && contains ~needle:"10.0%" c);
  Alcotest.(check bool) "negative marked" true (contains ~needle:"-" c);
  (* all-zero input must not divide by zero *)
  let z = Util.Text_table.bar_chart [ ("x", 0.0) ] in
  Alcotest.(check bool) "zero chart renders" true (String.length z > 0)

(* ----------------------------- qcheck ----------------------------- *)

let prop_rng_int_in_range =
  QCheck.Test.make ~name:"rng int stays in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_bound_exclusive 100.0))
    (fun xs ->
      QCheck.assume (xs <> []);
      Stats.percentile 25.0 xs <= Stats.percentile 75.0 xs)

(* The checkpoint encoder sizes its file with [width] and fills it with
   [put]: both must agree with [string_of_int] at every width, the ends
   of the int range included. *)
let prop_decimal_put =
  QCheck.Test.make ~name:"Decimal.width and put = string_of_int" ~count:500
    QCheck.(
      oneof
        [ int; small_signed_int;
          oneofl [ 0; 9; 10; 99999; 100000; max_int; min_int; min_int + 1 ];
          map (fun k -> int_of_float (10. ** float_of_int k)) (int_bound 18) ])
    (fun v ->
      let s = string_of_int v in
      let b = Bytes.make 24 '.' in
      let stop = Util.Decimal.put b 2 v in
      Util.Decimal.width v = String.length s
      && stop = 2 + String.length s
      && Bytes.sub_string b 2 (String.length s) = s
      && Bytes.get b stop = '.'
      && (match Util.Decimal.put (Bytes.create (String.length s - 1)) 0 v with
         | _ -> false
         | exception Invalid_argument _ -> true))

(* [Json.parse] is total: any damage to a document parses to a value or
   raises [Parse_error], never another exception.  Documents are random
   values printed by [Json.to_string]. *)
let json_value =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Util.Json.Null;
        map (fun b -> Util.Json.Bool b) bool;
        map (fun f -> Util.Json.Num f) (float_range (-1e6) 1e6);
        map (fun n -> Util.Json.Num (float_of_int n)) small_signed_int;
        map (fun s -> Util.Json.Str s) (string_size ~gen:char (int_bound 12));
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               (2, map (fun l -> Util.Json.Arr l)
                     (list_size (int_bound 4) (self (n - 1))));
               (2, map (fun l -> Util.Json.Obj l)
                     (list_size (int_bound 4)
                        (pair (string_size ~gen:printable (int_bound 6))
                           (self (n - 1)))));
             ])

let prop_json_parse_total =
  QCheck.Test.make ~name:"Json.parse is total over damaged documents"
    ~count:300
    (QCheck.make
       ~print:(fun (v, seed) ->
         Printf.sprintf "%s, seed %d" (Util.Json.to_string v) seed)
       QCheck.Gen.(pair json_value (int_bound 1_000_000)))
    (fun (v, seed) ->
      List.for_all
        (fun text ->
          match Util.Json.parse text with
          | _ | (exception Util.Json.Parse_error _) -> true
          | exception e ->
            QCheck.Test.fail_reportf "input %S raised %s" text
              (Printexc.to_string e))
        (Damage.variants ~count:32 ~seed (Util.Json.to_string v)))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_rng_int_in_range; prop_percentile_monotone;
      prop_decimal_put; prop_json_parse_total ]

(* --------------------------- Atomic_io ---------------------------- *)

(* The durable write's contract: whatever IO operation a crash lands
   on, a reader afterwards sees the complete old content or the
   complete new content — never a tear, never an absence.  A contained
   ENOSPC must additionally leave the OLD content (the caller was told
   the write failed). *)
let test_atomic_write_crash_points () =
  let dir = Filename.temp_file "critics-aio" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let path = Filename.concat dir "state" in
      let old_content = "old content, fully intact" in
      let new_content = "NEW content, rather longer than the old one" in
      (* Learn the op count of one durable write. *)
      let total =
        let count = ref 0 in
        let inject ~op:_ =
          incr count;
          Util.Atomic_io.Proceed
        in
        Util.Atomic_io.write ~durable:true ~inject path old_content;
        !count
      in
      Alcotest.(check bool) "durable write has ops" true (total >= 3);
      for at = 0 to total - 1 do
        List.iteri
          (fun case action ->
            Util.Atomic_io.write ~durable:true path old_content;
            let fired = ref false in
            let count = ref 0 in
            let inject ~op:_ =
              let n = !count in
              incr count;
              if n = at && not !fired then begin
                fired := true;
                action
              end
              else Util.Atomic_io.Proceed
            in
            let crashed =
              match
                Util.Atomic_io.write ~durable:true ~inject path new_content
              with
              | () -> false
              | exception Util.Atomic_io.Injected_crash _ -> true
              | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> false
            in
            let label what =
              Printf.sprintf "op %d case %d: %s" at case what
            in
            let got = Util.Atomic_io.read_file path in
            Alcotest.(check bool)
              (label "old or new, never torn")
              true
              (got = old_content || got = new_content);
            (* A write that returned success must show the new bytes.
               A contained failure may show either (an ENOSPC after the
               rename reports failure for an install that landed — the
               ambiguity every commit protocol has) but never a tear,
               which the check above already enforced. *)
            if (not crashed) && not !fired then
              Alcotest.(check string)
                (label "completed write installed")
                new_content got;
            ignore (Util.Atomic_io.sweep_tmp dir))
          [
            Util.Atomic_io.Crash;
            Util.Atomic_io.Torn 4;
            Util.Atomic_io.Fail 2;
          ]
      done)

let test_atomic_write_sweeps_crash_tmp () =
  let dir = Filename.temp_file "critics-aio" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let path = Filename.concat dir "state" in
      let inject ~op =
        if op = "aio.write" then Util.Atomic_io.Torn 2
        else Util.Atomic_io.Proceed
      in
      (match Util.Atomic_io.write ~durable:true ~inject path "payload" with
      | () -> Alcotest.fail "injected crash did not fire"
      | exception Util.Atomic_io.Injected_crash _ -> ());
      (* The simulated crash leaves its torn tmp, exactly like a real
         one; the next startup's sweep collects it. *)
      Alcotest.(check int) "torn tmp left behind" 1
        (Util.Atomic_io.sweep_tmp dir);
      Alcotest.(check int) "sweep is idempotent" 0
        (Util.Atomic_io.sweep_tmp dir))

(* ------------------------------- Err ------------------------------ *)

(* The line bench prints for a failed artifact: [kind] and message,
   nothing else. *)
let test_err_to_string () =
  let printed f =
    match f () with
    | _ -> Alcotest.fail "expected an exception"
    | exception e -> Util.Err.to_string (Util.Err.of_exn e)
  in
  check Alcotest.string "Failure is fatal" "[fatal] boom"
    (printed (fun () -> failwith "boom"));
  check Alcotest.string "Db_io names path and line"
    "[corrupt-input] Db_io db.txt:3: negative site count"
    (printed (fun () ->
         Profiler.Db_io.of_string ~path:"db.txt"
           "critics-db-1\ntotal_work 10\nsites -1\n"))

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects <=0" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "uniformity" `Slow test_rng_uniformity;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "geometric mean" `Slow test_rng_geometric_mean;
          Alcotest.test_case "weighted index" `Quick test_weighted_index;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
      ( "dist",
        [
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "bar chart" `Quick test_bar_chart;
        ] );
      ( "atomic-io",
        [
          Alcotest.test_case "crash at every IO op" `Quick
            test_atomic_write_crash_points;
          Alcotest.test_case "crash tmp swept" `Quick
            test_atomic_write_sweeps_crash_tmp;
        ] );
      ("err", [ Alcotest.test_case "to_string" `Quick test_err_to_string ]);
      ("properties", qcheck_cases);
    ]
