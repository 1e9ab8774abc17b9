type counter = { mutable c : int }
type gauge = { mutable g : int }

let num_buckets = 64

type histogram = {
  mutable n : int;
  mutable sum : int;
  mutable hmax : int;
  buckets : int array; (* power-of-two buckets; see bucket_of *)
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }
let is_empty t = Hashtbl.length t.tbl = 0

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let get_or_create t name ~make ~cast =
  match Hashtbl.find_opt t.tbl name with
  | Some m -> (
    match cast m with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Telemetry.Registry: %S already bound as a %s" name
           (kind_name m)))
  | None ->
    let m, v = make () in
    Hashtbl.replace t.tbl name m;
    v

let counter t name =
  get_or_create t name
    ~make:(fun () ->
      let c = { c = 0 } in
      (Counter c, c))
    ~cast:(function Counter c -> Some c | _ -> None)

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let counter_value c = c.c

let gauge t name =
  get_or_create t name
    ~make:(fun () ->
      let g = { g = 0 } in
      (Gauge g, g))
    ~cast:(function Gauge g -> Some g | _ -> None)

let set g v = g.g <- v
let set_max g v = if v > g.g then g.g <- v

let histogram t name =
  get_or_create t name
    ~make:(fun () ->
      let h = { n = 0; sum = 0; hmax = 0; buckets = Array.make num_buckets 0 } in
      (Histogram h, h))
    ~cast:(function Histogram h -> Some h | _ -> None)

(* Bucket index = bit width of v: v <= 0 -> 0, otherwise bucket b holds
   [2^(b-1), 2^b - 1].  Constant number of shift/test steps. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let v = ref v in
    let b = ref 0 in
    if !v lsr 32 <> 0 then begin b := !b + 32; v := !v lsr 32 end;
    if !v lsr 16 <> 0 then begin b := !b + 16; v := !v lsr 16 end;
    if !v lsr 8 <> 0 then begin b := !b + 8; v := !v lsr 8 end;
    if !v lsr 4 <> 0 then begin b := !b + 4; v := !v lsr 4 end;
    if !v lsr 2 <> 0 then begin b := !b + 2; v := !v lsr 2 end;
    if !v lsr 1 <> 0 then begin b := !b + 1 end;
    min (num_buckets - 1) (!b + 1)
  end

let observe h v =
  h.n <- h.n + 1;
  h.sum <- h.sum + v;
  if v > h.hmax then h.hmax <- v;
  let b = h.buckets in
  let i = bucket_of v in
  b.(i) <- b.(i) + 1

let hist_count h = h.n
let hist_max h = h.hmax

let quantile h q =
  if h.n = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int h.n)) in
      if r < 1 then 1 else if r > h.n then h.n else r
    in
    let cum = ref 0 in
    let res = ref h.hmax in
    (try
       for b = 0 to num_buckets - 1 do
         cum := !cum + h.buckets.(b);
         if !cum >= rank then begin
           res := (if b = 0 then 0 else (1 lsl b) - 1);
           raise Exit
         end
       done
     with Exit -> ());
    min !res h.hmax
  end

let merge_into ~into src =
  Hashtbl.iter
    (fun name m ->
      match m with
      | Counter c -> add (counter into name) c.c
      | Gauge g -> set_max (gauge into name) g.g
      | Histogram h ->
        let dst = histogram into name in
        dst.n <- dst.n + h.n;
        dst.sum <- dst.sum + h.sum;
        if h.hmax > dst.hmax then dst.hmax <- h.hmax;
        for b = 0 to num_buckets - 1 do
          dst.buckets.(b) <- dst.buckets.(b) + h.buckets.(b)
        done)
    src.tbl

type value =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of {
      count : int;
      sum : int;
      max : int;
      p50 : int;
      p90 : int;
      p99 : int;
    }

let snapshot t =
  Hashtbl.fold
    (fun name m acc ->
      let v =
        match m with
        | Counter c -> Counter_v c.c
        | Gauge g -> Gauge_v g.g
        | Histogram h ->
          Histogram_v
            {
              count = h.n;
              sum = h.sum;
              max = h.hmax;
              p50 = quantile h 0.50;
              p90 = quantile h 0.90;
              p99 = quantile h 0.99;
            }
      in
      (name, v) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json t =
  let snap = snapshot t in
  let section pred =
    let fields =
      List.filter_map
        (fun (name, v) ->
          match pred v with
          | Some payload ->
            Some
              (Printf.sprintf "\"%s\":%s" (Util.Json.escape_string name)
                 payload)
          | None -> None)
        snap
    in
    "{" ^ String.concat "," fields ^ "}"
  in
  let counters =
    section (function Counter_v c -> Some (string_of_int c) | _ -> None)
  in
  let gauges =
    section (function Gauge_v g -> Some (string_of_int g) | _ -> None)
  in
  let hists =
    section (function
      | Histogram_v { count; sum; max; p50; p90; p99 } ->
        Some
          (Printf.sprintf
             "{\"count\":%d,\"sum\":%d,\"max\":%d,\"p50\":%d,\"p90\":%d,\
              \"p99\":%d}"
             count sum max p50 p90 p99)
      | _ -> None)
  in
  Printf.sprintf "{\"counters\":%s,\"gauges\":%s,\"histograms\":%s}" counters
    gauges hists

(* ------------------------- serialization -------------------------- *)

(* Full-fidelity wire form for the ingest service: unlike [to_json]
   (which summarizes histograms to quantiles), this round-trips every
   bucket, so [of_bytes] followed by [merge_into] is exactly the merge
   of the original registries.  Deterministic: metrics sorted by name,
   names length-framed so any byte is legal in a name. *)

let wire_magic = "CRTREG01"

let to_bytes t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf wire_magic;
  Buffer.add_char buf '\n';
  let names =
    Hashtbl.fold (fun name _ acc -> name :: acc) t.tbl []
    |> List.sort compare
  in
  List.iter
    (fun name ->
      let framed = Printf.sprintf "%d:%s" (String.length name) name in
      match Hashtbl.find t.tbl name with
      | Counter c -> Buffer.add_string buf (Printf.sprintf "c %s %d\n" framed c.c)
      | Gauge g -> Buffer.add_string buf (Printf.sprintf "g %s %d\n" framed g.g)
      | Histogram h ->
        Buffer.add_string buf
          (Printf.sprintf "h %s %d %d %d" framed h.n h.sum h.hmax);
        Array.iter
          (fun b -> Buffer.add_string buf (Printf.sprintf " %d" b))
          h.buckets;
        Buffer.add_char buf '\n')
    names;
  Buffer.contents buf

exception Wire of string

let of_bytes text =
  try
    let n = String.length text in
    let pos = ref 0 in
    let fail fmt = Printf.ksprintf (fun m -> raise (Wire m)) fmt in
    let line () =
      match String.index_from_opt text !pos '\n' with
      | None -> fail "missing newline at byte %d" !pos
      | Some nl ->
        let l = String.sub text !pos (nl - !pos) in
        pos := nl + 1;
        l
    in
    if n < String.length wire_magic + 1 || line () <> wire_magic then
      raise (Wire "bad magic");
    let t = create () in
    let parse_name l at =
      (* "<len>:<name>" starting at [at]; returns (name, next index) *)
      match String.index_from_opt l at ':' with
      | None -> fail "missing name frame"
      | Some colon -> (
        match int_of_string_opt (String.sub l at (colon - at)) with
        | Some len
          when len >= 0 && colon + 1 + len <= String.length l ->
          (String.sub l (colon + 1) len, colon + 1 + len)
        | _ -> fail "bad name frame")
    in
    let ints_after l at =
      String.sub l at (String.length l - at)
      |> String.split_on_char ' '
      |> List.filter (fun s -> s <> "")
      |> List.map (fun s ->
             match int_of_string_opt s with
             | Some v -> v
             | None -> fail "bad integer %S" s)
    in
    while !pos < n do
      let l = line () in
      if String.length l < 2 then fail "short line";
      let name, rest = parse_name l 2 in
      let vals = ints_after l rest in
      match (l.[0], vals) with
      | 'c', [ v ] -> add (counter t name) v
      | 'g', [ v ] -> set (gauge t name) v
      | 'h', cnt :: sum :: hmax :: buckets
        when List.length buckets = num_buckets ->
        let h = histogram t name in
        h.n <- cnt;
        h.sum <- sum;
        h.hmax <- hmax;
        List.iteri (fun i b -> h.buckets.(i) <- b) buckets
      | k, _ -> fail "bad metric line kind %c" k
    done;
    Ok t
  with
  | Wire msg -> Error msg
  | Invalid_argument msg -> Error msg

let render t =
  let rows =
    List.map
      (fun (name, v) ->
        ( name,
          match v with
          | Counter_v c -> string_of_int c
          | Gauge_v g -> string_of_int g
          | Histogram_v { count; max; p50; p90; p99; _ } ->
            Printf.sprintf "n=%d p50=%d p90=%d p99=%d max=%d" count p50 p90
              p99 max ))
      (snapshot t)
  in
  if rows = [] then "(empty registry)\n" else Util.Text_table.render_kv rows
