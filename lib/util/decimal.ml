(* Digits of [v <= 0], most significant first.  Staying on the
   non-positive side keeps [min_int], which has no positive
   counterpart, exact. *)
let rec add_nonpositive buf v =
  if v <= -10 then add_nonpositive buf (v / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (v mod 10)))

let add buf v =
  (* Most values on the wire are histogram buckets, mostly 0. *)
  if v >= 0 && v < 10 then Buffer.add_char buf (Char.unsafe_chr (48 + v))
  else if v < 0 then begin
    Buffer.add_char buf '-';
    add_nonpositive buf v
  end
  else add_nonpositive buf (-v)
