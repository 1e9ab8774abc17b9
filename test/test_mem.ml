(* Tests for the memory hierarchy: caches, DRAM, prefetchers. *)

module C = Mem.Cache
module D = Mem.Dram
module H = Mem.Hierarchy
module SP = Mem.Stride_prefetcher

let mk_cache ?policy ?(size = 1024) ?(assoc = 2) ?(line = 64) () =
  C.create ?policy ~name:"t" ~size_bytes:size ~assoc ~line_bytes:line ()

let test_geometry () =
  let c = mk_cache () in
  Alcotest.(check int) "sets" 8 (C.sets c);
  Alcotest.(check int) "assoc" 2 (C.assoc c);
  Alcotest.check_raises "bad line"
    (Invalid_argument "Cache.create: line_bytes must be a power of two")
    (fun () ->
      ignore (C.create ~name:"x" ~size_bytes:1024 ~assoc:2 ~line_bytes:48 ()));
  (* Set and tag come from a mask and a shift: 3 sets cannot. *)
  Alcotest.check_raises "bad set count"
    (Invalid_argument "Cache.create: set count must be a power of two")
    (fun () ->
      ignore
        (C.create ~name:"x" ~size_bytes:(3 * 2 * 64) ~assoc:2 ~line_bytes:64 ()))

let test_hit_after_fill () =
  let c = mk_cache () in
  Alcotest.(check bool) "first access misses" false (C.access c 0x1000);
  Alcotest.(check bool) "second access hits" true (C.access c 0x1000);
  Alcotest.(check bool) "same line hits" true (C.access c 0x103F);
  Alcotest.(check bool) "next line misses" false (C.access c 0x1040)

let test_lru_eviction () =
  (* 2-way, 8 sets, 64B lines: addresses 0, 8*64, 16*64 map to set 0 *)
  let c = mk_cache () in
  let a0 = 0 and a1 = 8 * 64 and a2 = 16 * 64 in
  ignore (C.access c a0);
  ignore (C.access c a1);
  ignore (C.access c a0); (* a0 now MRU; a1 is LRU *)
  ignore (C.access c a2); (* evicts a1 *)
  Alcotest.(check bool) "a0 survives" true (C.probe c a0);
  Alcotest.(check bool) "a1 evicted" false (C.probe c a1);
  Alcotest.(check bool) "a2 resident" true (C.probe c a2)

let test_probe_no_side_effect () =
  let c = mk_cache () in
  ignore (C.probe c 0x2000);
  Alcotest.(check int) "probe not counted" 0 (C.stats c).C.accesses;
  Alcotest.(check bool) "probe does not fill" false (C.probe c 0x2000)

let test_stats () =
  let c = mk_cache () in
  ignore (C.access c 0);
  ignore (C.access c 0);
  ignore (C.access c 64);
  let s = C.stats c in
  Alcotest.(check int) "accesses" 3 s.C.accesses;
  Alcotest.(check int) "hits" 1 s.C.hits;
  Alcotest.(check int) "misses" 2 s.C.misses

let test_fill_is_prefetch () =
  let c = mk_cache () in
  C.fill c 0x3000;
  let s = C.stats c in
  Alcotest.(check int) "prefetch fill counted" 1 s.C.prefetch_fills;
  Alcotest.(check int) "no access counted" 0 s.C.accesses;
  Alcotest.(check bool) "line resident" true (C.probe c 0x3000)

let test_writeback_tracking () =
  let c = mk_cache () in
  (* dirty a line in set 0, then evict it with two more set-0 lines *)
  ignore (C.access ~write:true c 0);
  ignore (C.access c (8 * 64));
  ignore (C.access c (16 * 64));
  Alcotest.(check int) "one writeback" 1 (C.stats c).C.writebacks;
  (* clean evictions do not count *)
  ignore (C.access c (24 * 64));
  Alcotest.(check int) "clean eviction free" 1 (C.stats c).C.writebacks

let test_fill_reports_victim () =
  (* A prefetch fill that displaces a dirty line must report the victim
     so the caller can absorb the writeback — dropping it was the
     historical bug behind the lbm golden regeneration. *)
  let c = mk_cache () in
  ignore (C.access ~write:true c 0);
  ignore (C.access c (8 * 64));
  C.fill c (16 * 64);
  Alcotest.(check int) "victim line reported" 0 (C.victim_addr c);
  Alcotest.(check bool) "victim was dirty" true (C.victim_dirty c);
  Alcotest.(check int) "writeback counted" 1 (C.stats c).C.writebacks;
  (* Refilling a resident line displaces nothing; leaving the previous
     report in place would let a caller absorb the same victim twice. *)
  C.fill c (16 * 64);
  Alcotest.(check int) "resident fill clears report" (-1) (C.victim_addr c)

let test_cache_invalidate_all () =
  let c = mk_cache () in
  ignore (C.access ~write:true c 0);
  ignore (C.access c (8 * 64));
  C.invalidate_all c;
  Alcotest.(check bool) "lines dropped" false (C.probe c 0);
  Alcotest.(check int) "victim report cleared" (-1) (C.victim_addr c);
  (* Dirty bits died with the lines: churning the set afterwards evicts
     clean lines only, so no phantom writebacks appear. *)
  let wb = (C.stats c).C.writebacks in
  ignore (C.access c 0);
  ignore (C.access c (8 * 64));
  ignore (C.access c (16 * 64));
  ignore (C.access c (24 * 64));
  Alcotest.(check int) "no phantom writebacks" wb (C.stats c).C.writebacks

let test_srrip_prefers_distant () =
  (* 2-way set 0: a0 re-referenced (RRPV 0), a1 only filled (RRPV 2).
     SRRIP ages both and evicts a1 — where true LRU, for which a1 is the
     more recent line, would have evicted a0. *)
  let c = mk_cache ~policy:Mem.Replacement.Srrip () in
  let a0 = 0 and a1 = 8 * 64 and a2 = 16 * 64 in
  ignore (C.access c a0);
  ignore (C.access c a0);
  ignore (C.access c a1);
  ignore (C.access c a2);
  Alcotest.(check bool) "re-referenced line survives" true (C.probe c a0);
  Alcotest.(check bool) "long-interval line evicted" false (C.probe c a1)

let test_hierarchy_store_writeback_reaches_dram () =
  let small =
    { H.table_i with H.l1d_size = 1024; l2_size = 4096; l1i_prefetch = H.Ip_none }
  in
  let h = H.create small in
  (* dirty many distinct lines: they must eventually drain to DRAM *)
  for i = 0 to 299 do
    ignore (H.dwrite h ~now:(i * 10) ~pc:0 (0x10000 + (i * 64)))
  done;
  Alcotest.(check bool) "dram saw writebacks" true ((H.dram_stats h).D.writes > 0)

(* ------------------------------- DRAM ----------------------------- *)

let test_dram_row_hits () =
  let d = D.create () in
  let lat1 = D.access d ~now:0 ~write:false 0x100 in
  let lat2 = D.access d ~now:1000 ~write:false 0x140 in
  Alcotest.(check bool) "row hit faster" true (lat2 < lat1);
  let s = D.stats d in
  Alcotest.(check int) "one row hit" 1 s.D.row_hits;
  Alcotest.(check int) "one row miss" 1 s.D.row_misses

let test_dram_bank_contention () =
  let d = D.create () in
  let l1 = D.access d ~now:0 ~write:false 0x100 in
  (* immediate second access to the same bank queues behind the first *)
  let l2 = D.access d ~now:0 ~write:false (0x100 + (2048 * 16)) in
  Alcotest.(check bool) "queued access slower" true (l2 > l1)

let test_dram_counts_writes () =
  let d = D.create () in
  ignore (D.access d ~now:0 ~write:true 0x100);
  Alcotest.(check int) "write counted" 1 (D.stats d).D.writes

(* ---------------------------- prefetcher --------------------------- *)

let test_stride_prefetcher_learns () =
  let p = SP.create () in
  Alcotest.(check (list int)) "cold" [] (SP.observe p ~pc:4 ~addr:0);
  Alcotest.(check (list int)) "first stride" [] (SP.observe p ~pc:4 ~addr:64);
  Alcotest.(check (list int)) "confidence building" []
    (SP.observe p ~pc:4 ~addr:128);
  Alcotest.(check (list int)) "prefetch issued" [ 256 ]
    (SP.observe p ~pc:4 ~addr:192);
  Alcotest.(check int) "issued count" 1 (SP.issued p)

let test_stride_prefetcher_resets_on_noise () =
  let p = SP.create () in
  ignore (SP.observe p ~pc:4 ~addr:0);
  ignore (SP.observe p ~pc:4 ~addr:64);
  ignore (SP.observe p ~pc:4 ~addr:128);
  Alcotest.(check (list int)) "noise clears confidence" []
    (SP.observe p ~pc:4 ~addr:1000)

(* ---------------------------- hierarchy ---------------------------- *)

let test_hierarchy_levels () =
  let h = H.create H.table_i in
  let o1 = H.dread h ~now:0 ~pc:0 0x5000 in
  Alcotest.(check bool) "first read from DRAM" true (o1.H.level = H.Main);
  let o2 = H.dread h ~now:100 ~pc:0 0x5000 in
  Alcotest.(check bool) "second read from L1" true (o2.H.level = H.L1);
  Alcotest.(check int) "L1 latency is hit latency" H.table_i.H.l1d_hit
    o2.H.latency;
  Alcotest.(check bool) "DRAM slower than L1" true (o1.H.latency > o2.H.latency)

let test_hierarchy_prefetch_hides_latency () =
  let h = H.create H.table_i in
  H.prefetch_d h ~now:0 ~pc:0 0x9000;
  (* long after the prefetch completes, the demand access is an L1 hit *)
  let o = H.dread h ~now:1000 ~pc:0 0x9000 in
  Alcotest.(check int) "hidden latency" H.table_i.H.l1d_hit o.H.latency

let test_hierarchy_early_demand_pays_partial () =
  let h = H.create H.table_i in
  H.prefetch_d h ~now:0 ~pc:0 0xA000;
  let immediate = H.dread h ~now:1 ~pc:0 0xA000 in
  Alcotest.(check bool) "early demand pays remainder" true
    (immediate.H.latency > H.table_i.H.l1d_hit);
  let h2 = H.create H.table_i in
  let cold = H.dread h2 ~now:1 ~pc:0 0xA000 in
  Alcotest.(check bool) "still cheaper than cold miss" true
    (immediate.H.latency <= cold.H.latency)

let test_hierarchy_touch_warm () =
  let h = H.create H.table_i in
  H.touch_i h 0x7000;
  let o = H.ifetch h ~now:0 0x7000 in
  Alcotest.(check bool) "warmed line hits L1" true (o.H.level = H.L1);
  Alcotest.(check int) "touch not counted as access" 1 (H.l1i_stats h).C.accesses

let test_next_line_prefetcher () =
  let h = H.create H.table_i in
  ignore (H.ifetch h ~now:0 0x8000);
  (* give the next-line prefetch time to land, then access it *)
  let o = H.ifetch h ~now:500 0x8040 in
  Alcotest.(check bool) "next line was prefetched" true (o.H.level = H.L1)

let test_hierarchy_invalidate_all () =
  let h = H.create H.table_i in
  ignore (H.dwrite h ~now:0 ~pc:0 0xB000);
  H.prefetch_d h ~now:100 ~pc:0 0x9000;
  let writes = (H.dram_stats h).D.writes in
  H.invalidate_all h;
  Alcotest.(check int) "invalidation writes nothing back" writes
    ((H.dram_stats h).D.writes);
  (* The dirty line and the completed part of the prefetch are both
     gone: each address is a full cold miss again. *)
  let o = H.dread h ~now:1000 ~pc:0 0xB000 in
  Alcotest.(check bool) "dirty line dropped" true (o.H.level = H.Main);
  let o = H.dread h ~now:1001 ~pc:0 0x9000 in
  Alcotest.(check bool) "prefetched line dropped" true (o.H.level = H.Main)

let test_hierarchy_invalidate_kills_inflight_prefetch () =
  (* Invalidate while the prefetch is still in flight: the later demand
     must pay the whole miss, not the remaining cycles. *)
  let h = H.create H.table_i in
  H.prefetch_d h ~now:0 ~pc:0 0xA000;
  H.invalidate_all h;
  let after = H.dread h ~now:1 ~pc:0 0xA000 in
  let cold = H.dread (H.create H.table_i) ~now:1 ~pc:0 0xA000 in
  Alcotest.(check bool) "full miss again" true (after.H.level = H.Main);
  (* No partial-wait credit from the killed prefetch: at least the cold
     miss (DRAM bank timing is not cache state, so queueing behind the
     prefetch's DRAM access may make it dearer). *)
  Alcotest.(check bool) "no partial-wait credit" true
    (after.H.latency >= cold.H.latency)

let prop_cache_hits_bounded =
  QCheck.Test.make ~name:"hits + misses = accesses" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 0xFFFF))
    (fun addrs ->
      let c = mk_cache () in
      List.iter (fun a -> ignore (C.access c a)) addrs;
      let s = C.stats c in
      s.C.hits + s.C.misses = s.C.accesses
      && s.C.accesses = List.length addrs)

(* True-LRU reference model.  Each set is an MRU-ordered (tag, dirty)
   list; [Cache.access_evict] and [Cache.fill] must agree with it on
   every observable: the hit flag, the evicted line and its dirty bit,
   residency as seen by [probe] (inclusion of the model in the cache and
   vice versa), and the writeback count. *)
let prop_cache_matches_lru_model =
  let sets = 4 and assoc = 4 and shift = 6 in
  QCheck.Test.make ~name:"cache matches a true-LRU reference model"
    ~count:200
    (* (address, op) with op 0 = demand read, 1 = demand write,
       2 = prefetch fill; 0x7FF spans 8 tags per set for pressure. *)
    QCheck.(list_of_size Gen.(int_range 1 400)
              (pair (int_bound 0x7FF) (int_bound 2)))
    (fun ops ->
      let c =
        C.create ~name:"model" ~size_bytes:(sets * assoc * 64) ~assoc
          ~line_bytes:64 ()
      in
      let model = Array.make sets [] in
      let model_writebacks = ref 0 in
      (* Install at MRU; if the set is full the LRU tail is the victim. *)
      let install set tag dirty =
        if List.length model.(set) >= assoc then begin
          let rec split acc = function
            | [ last ] -> (List.rev acc, last)
            | x :: tl -> split (x :: acc) tl
            | [] -> assert false
          in
          let keep, ((_, vd) as victim) = split [] model.(set) in
          if vd then incr model_writebacks;
          model.(set) <- (tag, dirty) :: keep;
          Some victim
        end
        else begin
          model.(set) <- (tag, dirty) :: model.(set);
          None
        end
      in
      let promote set tag extra_dirty =
        let dirty = ref extra_dirty in
        let rest =
          List.filter
            (fun (t, d) -> if t = tag then (dirty := !dirty || d; false) else true)
            model.(set)
        in
        model.(set) <- (tag, !dirty) :: rest
      in
      List.for_all
        (fun (addr, op) ->
          let line = addr lsr shift in
          let set = line mod sets and tag = line / sets in
          let present = List.mem_assoc tag model.(set) in
          let step_ok =
            if op = 2 then begin
              C.fill c addr;
              if present then promote set tag false
              else ignore (install set tag false);
              true
            end
            else begin
              let write = op = 1 in
              let hit, victim = C.access_evict ~write c addr in
              let model_victim =
                if present then (promote set tag write; None)
                else install set tag write
              in
              hit = present
              && (match (victim, model_victim) with
                 | None, None -> true
                 | Some (va, vd), Some (vt, vd') ->
                   va = ((vt * sets) + set) lsl shift && vd = vd'
                 | _ -> false)
            end
          in
          step_ok && C.probe c addr = List.mem_assoc tag model.(set))
        ops
      && (C.stats c).C.writebacks = !model_writebacks)

(* RRIP-family reference models.  One naive per-way executable spec,
   written straight from the papers rather than from [Mem.Replacement]:
   each line carries a 2-bit RRPV; fills predict per the policy (SRRIP:
   long; BRRIP: distant except every 32nd fill; TRRIP: the temperature
   hint, clamped); hits promote to near-immediate; the victim is the
   first way at distant, aging every way until one gets there.  Invalid
   ways are preferred before the policy is consulted.  The cache must
   agree on the hit flag, the victim report, residency, and the
   writeback count. *)
let prop_cache_matches_rrip_model kind =
  let sets = 4 and assoc = 4 and shift = 6 in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "cache matches a naive %s reference model"
         (Mem.Replacement.kind_name kind))
    ~count:200
    (* (address, (op, hint)): op 0 = demand read, 1 = demand write,
       2 = prefetch fill; hint is a TRRIP temperature, -1 = unknown
       (ignored by SRRIP/BRRIP). *)
    QCheck.(
      list_of_size
        Gen.(int_range 1 400)
        (pair (int_bound 0x7FF) (pair (int_bound 2) (int_range (-1) 3))))
    (fun ops ->
      let c =
        C.create ~policy:kind ~name:"model" ~size_bytes:(sets * assoc * 64)
          ~assoc ~line_bytes:64 ()
      in
      let mtag = Array.make_matrix sets assoc (-1) in
      let mdirty = Array.make_matrix sets assoc false in
      let mrrpv = Array.make_matrix sets assoc 3 in
      let fills = ref 0 in
      let model_writebacks = ref 0 in
      let fill_rrpv hint =
        match kind with
        | Mem.Replacement.Srrip -> 2
        | Mem.Replacement.Brrip ->
          incr fills;
          if !fills mod 32 = 0 then 2 else 3
        | Mem.Replacement.Trrip -> if hint < 0 then 2 else min hint 3
        | Mem.Replacement.Lru -> assert false
      in
      let find set tag =
        let w = ref (-1) in
        for i = assoc - 1 downto 0 do
          if mtag.(set).(i) = tag then w := i
        done;
        !w
      in
      let install set tag hint dirty =
        let way = ref (find set (-1)) in
        if !way < 0 then begin
          let found = ref (-1) in
          while !found < 0 do
            for i = assoc - 1 downto 0 do
              if mrrpv.(set).(i) = 3 then found := i
            done;
            if !found < 0 then
              for i = 0 to assoc - 1 do
                mrrpv.(set).(i) <- mrrpv.(set).(i) + 1
              done
          done;
          way := !found
        end;
        let victim =
          if mtag.(set).(!way) = -1 then None
          else begin
            let vd = mdirty.(set).(!way) in
            if vd then incr model_writebacks;
            Some (((mtag.(set).(!way) * sets) + set) lsl shift, vd)
          end
        in
        mtag.(set).(!way) <- tag;
        mdirty.(set).(!way) <- dirty;
        mrrpv.(set).(!way) <- fill_rrpv hint;
        victim
      in
      let victim_agrees mv =
        match mv with
        | None -> C.victim_addr c = -1
        | Some (va, vd) -> C.victim_addr c = va && C.victim_dirty c = vd
      in
      List.for_all
        (fun (addr, (op, hint)) ->
          let line = addr lsr shift in
          let set = line mod sets and tag = line / sets in
          let way = find set tag in
          let present = way >= 0 in
          let step_ok =
            if op = 2 then begin
              C.fill c addr;
              let mv =
                if present then begin
                  mrrpv.(set).(way) <- 0;
                  None
                end
                else install set tag (-1) false
              in
              victim_agrees mv
            end
            else begin
              let write = op = 1 in
              let hit = C.access_demand_hinted ~write ~hint c addr in
              let mv =
                if present then begin
                  mrrpv.(set).(way) <- 0;
                  if write then mdirty.(set).(way) <- true;
                  None
                end
                else install set tag hint write
              in
              hit = present && victim_agrees mv
            end
          in
          step_ok && C.probe c addr = (find set tag >= 0))
        ops
      && (C.stats c).C.writebacks = !model_writebacks)

(* LRU stack inclusion: with the same sets, a cache with more LRU ways
   holds a superset of the lines a smaller one holds after every
   access, so on any one demand stream a hit in the smaller is a hit in
   the larger and the larger never misses more. *)
let prop_lru_stack_inclusion =
  let sets = 4 in
  QCheck.Test.make ~name:"more LRU ways never miss more" ~count:200
    QCheck.(
      triple (int_range 1 4) (int_range 1 4)
        (list_of_size Gen.(int_range 1 400)
           (pair (int_bound 0x1FFF) bool)))
    (fun (small_ways, extra_ways, stream) ->
      let mk assoc =
        C.create ~name:"lru" ~size_bytes:(sets * assoc * 64) ~assoc
          ~line_bytes:64 ()
      in
      let small = mk small_ways and large = mk (small_ways + extra_ways) in
      List.for_all
        (fun (addr, write) ->
          let hs = C.access ~write small addr in
          let hl = C.access ~write large addr in
          (not hs) || hl)
        stream
      && (C.stats large).C.misses <= (C.stats small).C.misses)

(* [Hierarchy.copy] is deep: after a random warm-up, a copy and the
   original answer one random operation sequence — demand i/d reads and
   writes, prefetches, warm touches — with equal latencies, serving
   levels and statistics, and running the sequence on the copy first
   leaves the original's statistics and behaviour untouched.  Small
   caches force evictions and dirty writebacks; strided reads, the
   fetch-directed prefetcher and the opportunity tracker bring the
   prefetchers' tables and the in-flight fill tables into play.  (Each
   deep-copied field was mutation-checked: sharing any one of them
   fails this property.) *)
let prop_hierarchy_copy_is_deep =
  let cfg policy iprefetch =
    {
      H.table_i with
      H.l1i_size = 1024;
      l1d_size = 1024;
      l2_size = 8192;
      l1i_policy = policy;
      l1i_prefetch = iprefetch;
      l1i_opportunity = true;
    }
  in
  let op_gen =
    (* (kind, line, offset): addresses stay far above zero so that a
       prefetcher's backward strides never leave the address space. *)
    QCheck.Gen.(triple (int_bound 8) (int_bound 0x1FF) (int_bound 63))
  in
  QCheck.Test.make ~name:"Hierarchy.copy is deep" ~count:100
    QCheck.(
      make
        Gen.(
          quad
            (oneofl Mem.Replacement.all_kinds)
            (oneofl H.all_iprefetch)
            (list_size (int_range 0 300) op_gen)
            (list_size (int_range 1 300) op_gen)))
    (fun (policy, iprefetch, warmup, ops) ->
      let apply h next now (kind, line, off) =
        let addr = 0x100000 + (line * 64) + off in
        let pc = 0x400 + (line land 0xF) in
        let lat (o : H.outcome) =
          (o.latency, match o.level with H.L1 -> 1 | H.L2 -> 2 | H.Main -> 3)
        in
        match kind with
        | 0 -> lat (H.ifetch h ~now addr)
        | 1 -> lat (H.dread h ~now ~pc addr)
        | 2 -> lat (H.dwrite h ~now ~pc addr)
        | 3 ->
          H.prefetch_i h ~now addr;
          (0, 0)
        | 4 ->
          H.prefetch_d h ~now ~pc addr;
          (0, 0)
        | 5 ->
          H.touch_i h addr;
          (0, 0)
        | 6 ->
          H.touch_d h addr;
          (0, 0)
        | 7 -> (H.ifetch_lat_hinted h ~now ~hint:(line land 3) addr, 0)
        | _ ->
          (* Two reads that continue one of four per-pc strided
             progressions ([next]): they train the L2 stride prefetcher
             across operations, and its prefetches wait in the L2's
             in-flight table. *)
          let p = line land 3 in
          let read k =
            let a = next.(p) in
            next.(p) <- a + (64 * (1 + p));
            H.dread_lat h ~now:(now + k) ~pc:(0x800 + p) a
          in
          let first = read 0 in
          (first + read 1, 0)
      in
      let run h start next ops =
        List.mapi (fun i op -> apply h next (start + (8 * i)) op) ops
      in
      let stats h =
        (H.l1i_stats h, H.l1d_stats h, H.l2_stats h, H.dram_stats h,
         H.iopp_misses h, H.iopp_predictable h)
      in
      let h = H.create (cfg policy iprefetch) in
      let next = Array.init 4 (fun p -> 0x200000 + (p * 0x40000)) in
      ignore (run h 0 next warmup);
      let start = 8 * List.length warmup in
      let copy = H.copy h in
      let before = stats h in
      let on_copy = run copy start (Array.copy next) ops in
      let untouched = stats h = before in
      let on_original = run h start (Array.copy next) ops in
      untouched && on_copy = on_original && stats copy = stats h)

(* An affine address stream trains the stride table in exactly three
   observations; from the fourth on every observation returns exactly
   [degree] addresses spaced by the stride, and [issued] accounts for
   every one of them.  In particular the demand stream itself is
   untouched: predictions are extrapolations, never substitutions. *)
let prop_stride_prefetcher_affine =
  QCheck.Test.make ~name:"affine stream predicted exactly" ~count:200
    QCheck.(quad (int_bound 0xFFFF)
              (int_range (-512) 512) (int_range 1 4) (int_range 4 32))
    (fun (base, stride, degree, n) ->
      QCheck.assume (stride <> 0);
      let sp = SP.create ~degree () in
      let total = ref 0 in
      let ok = ref true in
      for k = 0 to n - 1 do
        let addr = base + (k * stride) in
        let preds = SP.observe sp ~pc:0x40 ~addr in
        total := !total + List.length preds;
        let expect =
          if k < 3 then []
          else List.init degree (fun i -> addr + (stride * (i + 1)))
        in
        if preds <> expect then ok := false
      done;
      !ok && SP.issued sp = !total)

let () =
  Alcotest.run "mem"
    [
      ( "cache",
        [
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "hit after fill" `Quick test_hit_after_fill;
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "probe side-effect free" `Quick test_probe_no_side_effect;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "fill is prefetch" `Quick test_fill_is_prefetch;
          Alcotest.test_case "fill reports victim" `Quick test_fill_reports_victim;
          Alcotest.test_case "invalidate all" `Quick test_cache_invalidate_all;
          Alcotest.test_case "srrip prefers distant" `Quick
            test_srrip_prefers_distant;
          Alcotest.test_case "writeback tracking" `Quick test_writeback_tracking;
          Alcotest.test_case "writebacks reach DRAM" `Quick
            test_hierarchy_store_writeback_reaches_dram;
        ] );
      ( "dram",
        [
          Alcotest.test_case "row hits" `Quick test_dram_row_hits;
          Alcotest.test_case "bank contention" `Quick test_dram_bank_contention;
          Alcotest.test_case "write counting" `Quick test_dram_counts_writes;
        ] );
      ( "prefetcher",
        [
          Alcotest.test_case "learns strides" `Quick test_stride_prefetcher_learns;
          Alcotest.test_case "noise resets" `Quick test_stride_prefetcher_resets_on_noise;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "levels" `Quick test_hierarchy_levels;
          Alcotest.test_case "prefetch hides latency" `Quick
            test_hierarchy_prefetch_hides_latency;
          Alcotest.test_case "early demand partial wait" `Quick
            test_hierarchy_early_demand_pays_partial;
          Alcotest.test_case "warmup touch" `Quick test_hierarchy_touch_warm;
          Alcotest.test_case "next-line prefetch" `Quick test_next_line_prefetcher;
          Alcotest.test_case "invalidate all" `Quick test_hierarchy_invalidate_all;
          Alcotest.test_case "invalidate kills in-flight prefetch" `Quick
            test_hierarchy_invalidate_kills_inflight_prefetch;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_cache_hits_bounded;
            prop_cache_matches_lru_model;
            prop_cache_matches_rrip_model Mem.Replacement.Srrip;
            prop_cache_matches_rrip_model Mem.Replacement.Brrip;
            prop_cache_matches_rrip_model Mem.Replacement.Trrip;
            prop_stride_prefetcher_affine;
            prop_lru_stack_inclusion;
            prop_hierarchy_copy_is_deep;
          ] );
    ]
