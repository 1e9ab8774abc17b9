module Histogram = struct
  type t = { counts : (int, int) Hashtbl.t; mutable total : int }

  let create () = { counts = Hashtbl.create 64; total = 0 }

  let addn h v n =
    if n < 0 then invalid_arg "Histogram.addn: negative count";
    let cur = Option.value ~default:0 (Hashtbl.find_opt h.counts v) in
    Hashtbl.replace h.counts v (cur + n);
    h.total <- h.total + n

  let add h v = addn h v 1
  let count h = h.total
  let get h v = Option.value ~default:0 (Hashtbl.find_opt h.counts v)

  let max_value h =
    Hashtbl.fold (fun v n acc -> if n > 0 then max v acc else acc) h.counts 0

  let bins h =
    Hashtbl.fold (fun v n acc -> (v, n) :: acc) h.counts []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let mean h =
    if h.total = 0 then 0.0
    else begin
      let s =
        Hashtbl.fold (fun v n acc -> acc +. float_of_int (v * n)) h.counts 0.0
      in
      s /. float_of_int h.total
    end
end
