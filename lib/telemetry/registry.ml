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

let bound_msg name m =
  Printf.sprintf "Telemetry.Registry: %S already bound as a %s" name
    (kind_name m)

let bound_as name m = invalid_arg (bound_msg name m)

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c
  | Some m -> bound_as name m
  | None ->
    let c = { c = 0 } in
    Hashtbl.replace t.tbl name (Counter c);
    c

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let counter_value c = c.c

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge g) -> g
  | Some m -> bound_as name m
  | None ->
    let g = { g = 0 } in
    Hashtbl.replace t.tbl name (Gauge g);
    g

let set g v = g.g <- v
let set_max g v = if v > g.g then g.g <- v

let histogram t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) -> h
  | Some m -> bound_as name m
  | None ->
    let h = { n = 0; sum = 0; hmax = 0; buckets = Array.make num_buckets 0 } in
    Hashtbl.replace t.tbl name (Histogram h);
    h

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

exception Clash of string * metric

(* Every name of [src] is looked up in [into] once, before anything
   changes, so a kind clash leaves [into] as it was; the returned thunk
   merges through the metrics found, creating only the missing ones. *)
let merger ~into src =
  match
    Hashtbl.fold
      (fun name m plan ->
        let dst = Hashtbl.find_opt into.tbl name in
        (match (m, dst) with
        | _, None
        | Counter _, Some (Counter _)
        | Gauge _, Some (Gauge _)
        | Histogram _, Some (Histogram _) -> ()
        | _, Some d -> raise_notrace (Clash (name, d)));
        (name, m, dst) :: plan)
      src.tbl []
  with
  | exception Clash (name, d) -> Error (bound_msg name d)
  | plan ->
    Ok
      (fun () ->
        List.iter
          (fun (name, m, dst) ->
            match (m, dst) with
            | Counter c, Some (Counter d) -> add d c.c
            | Counter c, _ -> add (counter into name) c.c
            | Gauge g, Some (Gauge d) -> set_max d g.g
            | Gauge g, _ -> set_max (gauge into name) g.g
            | Histogram h, dst ->
              let dst =
                match dst with
                | Some (Histogram d) -> d
                | _ -> histogram into name
              in
              dst.n <- dst.n + h.n;
              dst.sum <- dst.sum + h.sum;
              if h.hmax > dst.hmax then dst.hmax <- h.hmax;
              for b = 0 to num_buckets - 1 do
                dst.buckets.(b) <- dst.buckets.(b) + h.buckets.(b)
              done)
          plan)

let merge_into ~into src =
  match merger ~into src with
  | Ok merge -> merge ()
  | Error msg -> invalid_arg msg

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
   names length-framed.  Both directions run once per upload, so they
   touch each byte in place: no Printf, no per-token string. *)

let wire_magic = "CRTREG01"

let to_bytes t =
  let metrics =
    Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let buf = Buffer.create 1024 in
  let int v =
    Buffer.add_char buf ' ';
    Util.Decimal.add buf v
  in
  Buffer.add_string buf wire_magic;
  Buffer.add_char buf '\n';
  List.iter
    (fun (name, m) ->
      Buffer.add_char buf
        (match m with Counter _ -> 'c' | Gauge _ -> 'g' | Histogram _ -> 'h');
      int (String.length name);
      Buffer.add_char buf ':';
      Buffer.add_string buf name;
      (match m with
      | Counter c -> int c.c
      | Gauge g -> int g.g
      | Histogram h ->
        int h.n;
        int h.sum;
        int h.hmax;
        Array.iter int h.buckets);
      Buffer.add_char buf '\n')
    metrics;
  Buffer.contents buf

exception Wire of string
exception Not_int

let fail fmt = Printf.ksprintf (fun m -> raise (Wire m)) fmt

(* First index of [c] in [text.[i..j)], or [j]. *)
let rec index_in text c i j =
  if i >= j || String.unsafe_get text i = c then i else index_in text c (i + 1) j

(* The payload being decoded and the read position in it: one per
   decode, so reading a token allocates nothing. *)
type cursor = { text : string; mutable pos : int }

let is_digit = function '0' .. '9' -> true | _ -> false

(* The integer token at [c.pos], which runs to the first [sep] or [nl]:
   its value, with [c.pos] left at its end.  A plain decimal (an
   optional '-' and 1 to 18 digits, which cannot overflow) is read in
   place; any other token (a '+', a radix prefix, '_' separators, 19
   digits) goes to [int_of_string_opt] itself, so the two accept the
   same tokens with the same values.  [Not_int] where
   [int_of_string_opt] gives [None]. *)
let int_token c sep nl =
  let text = c.text and i = c.pos in
  let d = if i < nl && String.unsafe_get text i = '-' then i + 1 else i in
  let p = ref d and acc = ref 0 in
  while !p < nl && !p - d < 18 && is_digit (String.unsafe_get text !p) do
    acc := (!acc * 10) + Char.code (String.unsafe_get text !p) - 48;
    p := !p + 1
  done;
  if !p > d && (!p = nl || String.unsafe_get text !p = sep) then begin
    c.pos <- !p;
    if d > i then - !acc else !acc
  end
  else begin
    let j = index_in text sep i nl in
    c.pos <- j;
    match int_of_string_opt (String.sub text i (j - i)) with
    | Some v -> v
    | None -> raise_notrace Not_int
  end

(* A histogram line overwrites the named histogram, creating it if
   absent: [h] is the one just parsed. *)
let install t name h =
  match Hashtbl.find_opt t.tbl name with
  | None -> Hashtbl.replace t.tbl name (Histogram h)
  | Some (Histogram dst) ->
    dst.n <- h.n;
    dst.sum <- h.sum;
    dst.hmax <- h.hmax;
    Array.blit h.buckets 0 dst.buckets 0 num_buckets
  | Some m -> bound_as name m

(* The metric line from [c.pos] to [nl], its '\n'.  The byte after the
   kind is not looked at, and every integer is parsed (and may fail)
   before the kind and arity are checked: see [of_bytes] in the
   interface. *)
let metric_line t c nl =
  let text = c.text and s = c.pos in
  if nl - s < 2 then raise (Wire "short line");
  let colon = index_in text ':' (s + 2) nl in
  if colon = nl then raise (Wire "missing name frame");
  c.pos <- s + 2;
  let len = try int_token c ':' nl with Not_int -> -1 in
  if len < 0 || colon + 1 + len > nl then raise (Wire "bad name frame");
  let name = String.sub text (colon + 1) len in
  let kind = String.unsafe_get text s in
  (* A histogram's buckets are parsed straight into its array. *)
  let buckets = if kind = 'h' then Array.make num_buckets 0 else [||] in
  let v0 = ref 0 and v1 = ref 0 and v2 = ref 0 in
  let k = ref 0 in
  c.pos <- colon + 1 + len;
  while c.pos < nl do
    let i = c.pos in
    if String.unsafe_get text i = ' ' then c.pos <- i + 1
    else begin
      let v =
        try int_token c ' ' nl
        with Not_int -> fail "bad integer %S" (String.sub text i (c.pos - i))
      in
      (match !k with
      | 0 -> v0 := v
      | 1 -> v1 := v
      | 2 -> v2 := v
      | k -> if k - 3 < Array.length buckets then buckets.(k - 3) <- v);
      k := !k + 1
    end
  done;
  match kind with
  | 'c' when !k = 1 -> add (counter t name) !v0
  | 'g' when !k = 1 -> set (gauge t name) !v0
  | 'h' when !k = 3 + num_buckets ->
    install t name { n = !v0; sum = !v1; hmax = !v2; buckets }
  | kind -> fail "bad metric line kind %c" kind

let of_bytes text =
  let n = String.length text in
  let m = String.length wire_magic in
  try
    if n < m + 1 then raise (Wire "bad magic");
    let nl = index_in text '\n' 0 n in
    if nl = n then raise (Wire "missing newline at byte 0");
    if nl <> m || not (String.starts_with ~prefix:wire_magic text) then
      raise (Wire "bad magic");
    let t = create () in
    let c = { text; pos = nl + 1 } in
    while c.pos < n do
      let nl = index_in text '\n' c.pos n in
      if nl = n then fail "missing newline at byte %d" c.pos;
      metric_line t c nl;
      c.pos <- nl + 1
    done;
    Ok t
  with Wire msg | Invalid_argument msg -> Error msg

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
