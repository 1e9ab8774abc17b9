(* Odd 64-bit multipliers (xxHash64's primes). *)
let p1 = 0x9E3779B185EBCA87L
let p2 = 0xC2B2AE3D27D4EB4FL
let p3 = 0x165667B19E3779F9L
let p4 = 0x85EBCA77C2B2AE63L
let p5 = 0x27D4EB2F165667C5L

(* [@inline] keeps the lanes unboxed: an out-of-line call would box an
   [Int64] per word and lane. *)
let[@inline] rotl x r =
  Int64.logor (Int64.shift_left x r) (Int64.shift_right_logical x (64 - r))

(* Every step below is a bijection of the lane for a fixed word, and of
   the word for a fixed lane: a changed word changes the lane it enters,
   and no later word can undo that. *)
let[@inline] round_a a w =
  Int64.mul (rotl (Int64.add a (Int64.mul w p2)) 31) p1

let[@inline] round_b b w =
  Int64.add (Int64.mul (rotl (Int64.logxor b w) 27) p3) p4

(* xxHash64's avalanche: xor-shifts and odd multiplies, each
   invertible. *)
let avalanche h =
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h p2 in
  let h = Int64.logxor h (Int64.shift_right_logical h 29) in
  let h = Int64.mul h p3 in
  Int64.logxor h (Int64.shift_right_logical h 32)

let hex = "0123456789abcdef"

let put_hex out pos v =
  for i = 0 to 15 do
    let nibble =
      Int64.to_int (Int64.shift_right_logical v (60 - (4 * i))) land 0xf
    in
    Bytes.unsafe_set out (pos + i) hex.[nibble]
  done

let subbytes b pos len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Checksum.subbytes";
  let a = ref p1 and c = ref p5 in
  let stop = pos + (len land lnot 7) in
  let i = ref pos in
  while !i < stop do
    let w = Bytes.get_int64_le b !i in
    a := round_a !a w;
    c := round_b !c w;
    i := !i + 8
  done;
  (* The last 1-7 bytes form one zero-padded word; the length, mixed
     in below, tells a padded word from a whole one. *)
  if stop < pos + len then begin
    let w = ref 0L in
    for j = pos + len - 1 downto stop do
      w :=
        Int64.logor (Int64.shift_left !w 8)
          (Int64.of_int (Char.code (Bytes.unsafe_get b j)))
    done;
    a := round_a !a !w;
    c := round_b !c !w
  end;
  let n = Int64.of_int len in
  let out = Bytes.create 32 in
  put_hex out 0 (avalanche (Int64.logxor !a (Int64.mul n p5)));
  put_hex out 16 (avalanche (Int64.add !c (Int64.mul n p1)));
  Bytes.unsafe_to_string out

let string s = subbytes (Bytes.unsafe_of_string s) 0 (String.length s)
