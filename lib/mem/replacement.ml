type kind = Lru | Srrip | Brrip | Trrip

let kind_name = function
  | Lru -> "lru"
  | Srrip -> "srrip"
  | Brrip -> "brrip"
  | Trrip -> "trrip"

let all_kinds = [ Lru; Srrip; Brrip; Trrip ]

(* 2-bit RRPVs for the whole RRIP family. *)
let rrpv_max = 3

(* SRRIP/TRRIP fills predict a "long" re-reference interval. *)
let rrpv_long = rrpv_max - 1

(* BRRIP inserts at long only once per this many fills (deterministic
   counter in place of the usual PRNG so runs replay exactly). *)
let brrip_period = 32

type t = {
  kind : kind;
  assoc : int;
  (* state.(set * assoc + way): LRU recency stamp (larger = more recent)
     or RRIP RRPV (0 = near-immediate .. 3 = distant). *)
  state : int array;
  mutable clock : int;     (* Lru only *)
  mutable fill_seq : int;  (* Brrip only *)
}

let initial_state = function Lru -> 0 | Srrip | Brrip | Trrip -> rrpv_max

let create kind ~sets ~assoc =
  if sets <= 0 || assoc <= 0 then
    invalid_arg "Replacement.create: geometry must be positive";
  {
    kind;
    assoc;
    state = Array.make (sets * assoc) (initial_state kind);
    clock = 0;
    fill_seq = 0;
  }

let kind t = t.kind
let copy t = { t with state = Array.copy t.state }

let on_hit t i =
  match t.kind with
  | Lru ->
    t.clock <- t.clock + 1;
    t.state.(i) <- t.clock
  | Srrip | Brrip | Trrip -> t.state.(i) <- 0

let on_fill t i ~hint =
  match t.kind with
  | Lru ->
    t.clock <- t.clock + 1;
    t.state.(i) <- t.clock
  | Srrip -> t.state.(i) <- rrpv_long
  | Brrip ->
    t.fill_seq <- t.fill_seq + 1;
    t.state.(i) <-
      (if t.fill_seq mod brrip_period = 0 then rrpv_long else rrpv_max)
  | Trrip ->
    t.state.(i) <-
      (if hint < 0 then rrpv_long
       else if hint > rrpv_max then rrpv_max
       else hint)

(* Allocation-free scans, same discipline as Cache.find_way: plain
   loops over mutable locals, no closures on the per-miss path. *)
let victim t ~base =
  let st = t.state in
  match t.kind with
  | Lru ->
    (* First way holding the strictly smallest stamp — the exact scan
       the historical cache used, so LRU victims are bit-identical. *)
    let best = ref 0 in
    for i = 0 to t.assoc - 1 do
      if st.(base + i) < st.(base + !best) then best := i
    done;
    !best
  | Srrip | Brrip | Trrip ->
    (* First way already at distant; otherwise age every way and
       rescan.  Terminates in at most rrpv_max rounds. *)
    let found = ref (-1) in
    while !found < 0 do
      let i = ref 0 in
      while !found < 0 && !i < t.assoc do
        if st.(base + !i) = rrpv_max then found := !i;
        incr i
      done;
      if !found < 0 then
        for i = base to base + t.assoc - 1 do
          st.(i) <- st.(i) + 1
        done
    done;
    !found

let reset t =
  Array.fill t.state 0 (Array.length t.state) (initial_state t.kind);
  t.clock <- 0;
  t.fill_seq <- 0
