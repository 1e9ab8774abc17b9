let sum = List.fold_left ( +. ) 0.0

let mean = function
  | [] -> 0.0
  | xs -> sum xs /. float_of_int (List.length xs)

let percentile p = function
  | [] -> invalid_arg "Stats.percentile: empty list"
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n = 1 then a.(0)
    else begin
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = min (lo + 1) (n - 1) in
      let frac = rank -. float_of_int lo in
      (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)
    end

let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)
