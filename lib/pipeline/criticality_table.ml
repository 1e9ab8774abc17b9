type t = {
  confidence : int array; (* 2-bit counters; predict critical when >= 2 *)
  tags : int array;
  threshold : int;
}

let create ?(entries = 4096) ~threshold () =
  {
    confidence = Array.make entries 0;
    tags = Array.make entries (-1);
    threshold;
  }

let slot t pc = (pc lsr 1) mod Array.length t.confidence

let predict t ~pc =
  let i = slot t pc in
  t.tags.(i) = pc && t.confidence.(i) >= 2

let train t ~pc ~fanout =
  let i = slot t pc in
  if t.tags.(i) <> pc then begin
    t.tags.(i) <- pc;
    t.confidence.(i) <- if fanout >= t.threshold then 2 else 0
  end
  else if fanout >= t.threshold then begin
    (* int-specialized saturation: train runs once per retirement *)
    let c = t.confidence.(i) in
    t.confidence.(i) <- (if c >= 3 then 3 else c + 1)
  end
  else begin
    let c = t.confidence.(i) in
    t.confidence.(i) <- (if c <= 0 then 0 else c - 1)
  end
