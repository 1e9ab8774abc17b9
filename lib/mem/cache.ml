type stats = {
  accesses : int;
  hits : int;
  misses : int;
  fills : int;
  prefetch_fills : int;
  writebacks : int;
}

type t = {
  name : string;
  line_bytes : int;
  line_shift : int;
  sets : int;
  set_mask : int;   (* sets - 1: the set is [line land set_mask] *)
  set_shift : int;  (* log2 sets: the tag is [line lsr set_shift] *)
  assoc : int;
  tags : int array;    (* tags.(set * assoc + way); -1 = invalid *)
  dirty : bool array;  (* same indexing *)
  repl : Replacement.t;
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable fills : int;
  mutable prefetch_fills : int;
  mutable writebacks : int;
  (* Victim of the most recent install, readable without allocating the
     [(addr, dirty) option] of {!access_evict}: -1 = no valid line was
     displaced.  Only meaningful immediately after {!access_demand} or
     {!fill}. *)
  mutable victim_addr : int;
  mutable victim_dirty : bool;
}

let is_pow2 x = x > 0 && x land (x - 1) = 0

let log2 x =
  let rec go i v = if v <= 1 then i else go (i + 1) (v lsr 1) in
  go 0 x

let create ?(policy = Replacement.Lru) ~name ~size_bytes ~assoc ~line_bytes ()
    =
  if not (is_pow2 line_bytes) then
    invalid_arg "Cache.create: line_bytes must be a power of two";
  if assoc <= 0 then invalid_arg "Cache.create: assoc must be positive";
  if size_bytes mod (assoc * line_bytes) <> 0 then
    invalid_arg "Cache.create: size not divisible by assoc * line";
  let sets = size_bytes / (assoc * line_bytes) in
  if not (is_pow2 sets) then
    invalid_arg "Cache.create: set count must be a power of two";
  {
    name;
    line_bytes;
    line_shift = log2 line_bytes;
    sets;
    set_mask = sets - 1;
    set_shift = log2 sets;
    assoc;
    tags = Array.make (sets * assoc) (-1);
    dirty = Array.make (sets * assoc) false;
    repl = Replacement.create policy ~sets ~assoc;
    accesses = 0;
    hits = 0;
    misses = 0;
    fills = 0;
    prefetch_fills = 0;
    writebacks = 0;
    victim_addr = -1;
    victim_dirty = false;
  }

let copy t =
  {
    t with
    tags = Array.copy t.tags;
    dirty = Array.copy t.dirty;
    repl = Replacement.copy t.repl;
  }

let name t = t.name
let line_bytes t = t.line_bytes
let sets t = t.sets
let assoc t = t.assoc
let policy t = Replacement.kind t.repl
let line_of t addr = addr land lnot (t.line_bytes - 1)

(* Flat index of the way holding [tag] in the set starting at [base], or
   -1 when the tag is not present: called once per access, so it avoids
   allocating an option on every cache hit.  Plain loops over mutable
   locals rather than local recursive functions: a [let rec] capturing
   [tag] costs a closure allocation per call without flambda, which on
   this per-access path is the difference between a GC-silent
   simulation loop and one minor allocation per cache access. *)
let find t base tag =
  let tags = t.tags in
  let found = ref (-1) in
  let i = ref base in
  let stop = base + t.assoc in
  while !found < 0 && !i < stop do
    if tags.(!i) = tag then found := !i;
    incr i
  done;
  !found

(* Invalid ways are preferred regardless of policy; the replacement
   policy only arbitrates full sets.  Returns a flat index. *)
let victim_slot t base =
  let tags = t.tags in
  let invalid = ref (-1) in
  let i = ref base in
  let stop = base + t.assoc in
  while !invalid < 0 && !i < stop do
    if tags.(!i) = -1 then invalid := !i;
    incr i
  done;
  if !invalid >= 0 then !invalid else base + Replacement.victim t.repl ~base

(* Install a tag, recording the victim line in [victim_addr]/
   [victim_dirty] ([victim_addr = -1]: no valid line displaced).
   Returns the flat index used.  [hint] is the replacement policy's
   fill hint (temperature for TRRIP; ignored by the others; -1 =
   none). *)
let install t set tag hint =
  let base = set * t.assoc in
  let i = victim_slot t base in
  let old_tag = t.tags.(i) in
  if old_tag = -1 then t.victim_addr <- -1
  else begin
    let addr = ((old_tag lsl t.set_shift) lor set) lsl t.line_shift in
    let was_dirty = t.dirty.(i) in
    if was_dirty then t.writebacks <- t.writebacks + 1;
    t.victim_addr <- addr;
    t.victim_dirty <- was_dirty
  end;
  t.tags.(i) <- tag;
  t.dirty.(i) <- false;
  Replacement.on_fill t.repl i ~hint;
  i

(* [~write]/[~hint] are plain labelled arguments, not optional: the hot
   path in Mem.Hierarchy passes runtime-computed values, and an optional
   argument would box them as [Some _] on every access. *)
let access_demand_hinted ~write ~hint t addr =
  let line = addr lsr t.line_shift in
  let set = line land t.set_mask and tag = line lsr t.set_shift in
  t.accesses <- t.accesses + 1;
  let i = find t (set * t.assoc) tag in
  if i >= 0 then begin
    t.hits <- t.hits + 1;
    Replacement.on_hit t.repl i;
    if write then t.dirty.(i) <- true;
    t.victim_addr <- -1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    t.fills <- t.fills + 1;
    let i = install t set tag hint in
    if write then t.dirty.(i) <- true;
    false
  end

let access_demand ~write t addr = access_demand_hinted ~write ~hint:(-1) t addr

let victim_addr t = t.victim_addr
let victim_dirty t = t.victim_dirty

let access_evict ?(write = false) t addr =
  let hit = access_demand ~write t addr in
  let victim =
    if t.victim_addr = -1 then None else Some (t.victim_addr, t.victim_dirty)
  in
  (hit, victim)

let access ?(write = false) t addr = access_demand ~write t addr

let probe t addr =
  let line = addr lsr t.line_shift in
  find t ((line land t.set_mask) * t.assoc) (line lsr t.set_shift) >= 0

let fill t addr =
  let line = addr lsr t.line_shift in
  let set = line land t.set_mask and tag = line lsr t.set_shift in
  let i = find t (set * t.assoc) tag in
  if i >= 0 then begin
    Replacement.on_hit t.repl i;
    (* The line was already resident: nothing was displaced.  Leaving
       the previous install's victim in place would let a caller absorb
       the same writeback twice. *)
    t.victim_addr <- -1
  end
  else begin
    t.fills <- t.fills + 1;
    t.prefetch_fills <- t.prefetch_fills + 1;
    ignore (install t set tag (-1))
  end

let invalidate_all t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  Replacement.reset t.repl;
  t.victim_addr <- -1;
  t.victim_dirty <- false

let stats t =
  {
    accesses = t.accesses;
    hits = t.hits;
    misses = t.misses;
    fills = t.fills;
    prefetch_fills = t.prefetch_fills;
    writebacks = t.writebacks;
  }
