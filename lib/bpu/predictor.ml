type kind =
  | Two_level of { entries : int; history_bits : int }
  | Static_taken
  | Perfect

let default_kind = Two_level { entries = 4096; history_bits = 12 }

type stats = { lookups : int; mispredicts : int }

type machine =
  | M_two_level of {
      counters : int array; (* 2-bit saturating, taken if >= 2 *)
      mask : int;
      history_mask : int;
      mutable history : int;
    }
  | M_static
  | M_perfect

type t = {
  machine : machine;
  mutable lookups : int;
  mutable mispredicts : int;
}

let is_pow2 x = x > 0 && x land (x - 1) = 0

let create kind =
  let machine =
    match kind with
    | Two_level { entries; history_bits } ->
      if not (is_pow2 entries) then
        invalid_arg "Predictor.create: entries must be a power of two";
      M_two_level
        {
          counters = Array.make entries 2 (* weakly taken *);
          mask = entries - 1;
          history_mask = (1 lsl history_bits) - 1;
          history = 0;
        }
    | Static_taken -> M_static
    | Perfect -> M_perfect
  in
  { machine; lookups = 0; mispredicts = 0 }

let predict_and_update t ~pc ~taken =
  t.lookups <- t.lookups + 1;
  let predicted =
    match t.machine with
    | M_perfect -> taken
    | M_static -> true
    | M_two_level m ->
      let idx = ((pc lsr 2) lxor m.history) land m.mask in
      let predicted = m.counters.(idx) >= 2 in
      let c = m.counters.(idx) in
      (* int-specialized saturation: this runs once per conditional
         branch, and polymorphic min/max go through compare_val *)
      m.counters.(idx) <-
        (if taken then if c >= 3 then 3 else c + 1
         else if c <= 0 then 0
         else c - 1);
      m.history <-
        ((m.history lsl 1) lor (if taken then 1 else 0)) land m.history_mask;
      predicted
  in
  let correct = predicted = taken in
  if not correct then t.mispredicts <- t.mispredicts + 1;
  correct

let stats t = { lookups = t.lookups; mispredicts = t.mispredicts }
