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

let width v =
  (* Lengths and sequence numbers take the short branches. *)
  if v >= 0 && v < 100_000 then
    if v < 10 then 1
    else if v < 100 then 2
    else if v < 1000 then 3
    else if v < 10_000 then 4
    else 5
  else begin
    (* Counted on the non-positive side, like [add]; 19 digits at most. *)
    let n = if v < 0 then v else -v in
    let w = ref 1 and p = ref (-10) in
    while !w < 19 && n <= !p do
      incr w;
      p := !p * 10
    done;
    if v < 0 then !w + 1 else !w
  end

let put b pos v =
  let w = width v in
  if pos < 0 || pos > Bytes.length b - w then invalid_arg "Decimal.put";
  let first = if v < 0 then pos + 1 else pos in
  if v < 0 then Bytes.unsafe_set b pos '-';
  let n = ref (if v < 0 then v else -v) in
  for i = pos + w - 1 downto first do
    Bytes.unsafe_set b i (Char.unsafe_chr (48 - (!n mod 10)));
    n := !n / 10
  done;
  pos + w
