type t = Average_fanout | Geometric_mean | Tail_weighted | Minimum_fanout

let all = [ Average_fanout; Geometric_mean; Tail_weighted; Minimum_fanout ]

let name = function
  | Average_fanout -> "average"
  | Geometric_mean -> "geomean"
  | Tail_weighted -> "tail-weighted"
  | Minimum_fanout -> "minimum"

let of_string s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun m -> name m = s) all

let score_sub metric fanouts off len =
  if len = 0 then 0.0
  else begin
    let fn = float_of_int len in
    match metric with
    | Average_fanout ->
      let sum = ref 0 in
      for k = off to off + len - 1 do
        sum := !sum + fanouts.(k)
      done;
      float_of_int !sum /. fn
    | Geometric_mean ->
      (* fanout-0 members zero the product; add-one smoothing keeps the
         metric comparable to the arithmetic mean on uniform chains *)
      let logsum = ref 0.0 in
      for k = off to off + len - 1 do
        logsum := !logsum +. log (float_of_int (fanouts.(k) + 1))
      done;
      exp (!logsum /. fn) -. 1.0
    | Tail_weighted ->
      (* weights 1..n, later members heavier *)
      let acc = ref 0.0 and wsum = ref 0.0 in
      for k = 0 to len - 1 do
        let w = float_of_int (k + 1) in
        acc := !acc +. (w *. float_of_int fanouts.(off + k));
        wsum := !wsum +. w
      done;
      !acc /. !wsum
    | Minimum_fanout ->
      let m = ref max_int in
      for k = off to off + len - 1 do
        m := min !m fanouts.(k)
      done;
      float_of_int !m
  end

let score metric fanouts =
  let a = Array.of_list fanouts in
  score_sub metric a 0 (Array.length a)
