type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = bits64 t in
  { state = mix (Int64.logxor s 0xA5A5A5A5A5A5A5A5L) }

let copy t = { state = t.state }

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's 63-bit native int. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  (* 53 random bits scaled to [0,1). *)
  v /. 9007199254740992.0 *. x

let bool t = Int64.logand (bits64 t) 1L = 1L

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p >= 1.0 then 0
  else
    let u = float t 1.0 in
    let u = if u <= 0.0 then epsilon_float else u in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let weighted_index t w =
  let total = Array.fold_left ( +. ) 0.0 w in
  if total <= 0.0 then invalid_arg "Rng.weighted_index: weights sum to zero";
  let x = float t total in
  let n = Array.length w in
  let rec go i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if x < acc then i else go (i + 1) acc
  in
  go 0 0.0
