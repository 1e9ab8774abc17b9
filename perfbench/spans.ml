(* Monotonic clock and the traced run's span recorder.

   Spans are taken from outside the libraries, around each public call
   an op makes: name, layer, start, end, parent span and the op id that
   every span of one op shares.  They stay in memory until the run ends;
   then they are exported as a Chrome trace (async begin/end, one id per
   op) through Telemetry.Chrome_trace and summed per layer.  An
   untraced run passes [None] and pays one match per call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6

type span = {
  id : int;
  mutable name : string;
  layer : string;
  op : int;  (* 0 = set-up *)
  parent : int;  (* -1 for a root span *)
  start_ns : int;
  mutable end_ns : int;
  mutable child_ns : int;  (* time covered by direct children *)
}

type t = {
  t0 : int;
  mutable closed : span list;  (* newest first *)
  mutable log : (bool * span) list;  (* (is_begin, span), newest first *)
  mutable stack : span list;  (* open spans, innermost first *)
  mutable next_id : int;
  counts : (string, float) Hashtbl.t;
}

let create () =
  {
    t0 = now_ns ();
    closed = [];
    log = [];
    stack = [];
    next_id = 0;
    counts = Hashtbl.create 64;
  }

let enter t ~layer ~name ~op =
  let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
  let s =
    {
      id = t.next_id;
      name;
      layer;
      op;
      parent;
      start_ns = now_ns ();
      end_ns = 0;
      child_ns = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- s :: t.stack;
  t.log <- (true, s) :: t.log;
  s

let leave t s =
  s.end_ns <- now_ns ();
  (match t.stack with
  | top :: rest when top == s -> t.stack <- rest
  | _ -> invalid_arg "Spans.leave: not the innermost open span");
  (match t.stack with
  | p :: _ -> p.child_ns <- p.child_ns + (s.end_ns - s.start_ns)
  | [] -> ());
  t.log <- (false, s) :: t.log;
  t.closed <- s :: t.closed

let span tr ~layer ~name ~op f =
  match tr with
  | None -> f ()
  | Some t -> (
    let s = enter t ~layer ~name ~op in
    match f () with
    | v ->
      leave t s;
      v
    | exception e ->
      leave t s;
      raise e)

(* Rename the span closed last — for calls classified by what they did,
   such as an ingest that triggered a checkpoint. *)
let rename_last tr name =
  match tr with
  | Some { closed = s :: _; _ } -> s.name <- name
  | _ -> ()

let add tr key v =
  match tr with
  | None -> ()
  | Some t ->
    let prev = Option.value ~default:0. (Hashtbl.find_opt t.counts key) in
    Hashtbl.replace t.counts key (prev +. v)

let count t key = Option.value ~default:0. (Hashtbl.find_opt t.counts key)

let dur s = s.end_ns - s.start_ns

(* Durations (ms) of the closed spans called [name] (in [layer], if
   given), in call order. *)
let durations t ?layer name =
  List.rev
    (List.filter_map
       (fun s ->
         if s.name = name && Option.fold ~none:true ~some:(( = ) s.layer) layer
         then Some (ms_of_ns (dur s))
         else None)
       t.closed)

type layer_row = { layer : string; calls : int; busy_ms : float; self_ms : float }

(* Per layer: calls, busy time (sum of span durations) and self time
   (each span minus the part its direct children cover). *)
let layers t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : span) ->
      let c, b, sf =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl s.layer)
      in
      Hashtbl.replace tbl s.layer
        (c + 1, b + dur s, sf + (dur s - s.child_ns)))
    t.closed;
  Hashtbl.fold
    (fun layer (calls, b, sf) acc ->
      { layer; calls; busy_ms = ms_of_ns b; self_ms = ms_of_ns sf } :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.layer b.layer)

let to_chrome t =
  let module C = Telemetry.Chrome_trace in
  let ct = C.create ~capacity:(List.length t.log + 16) () in
  List.iter
    (fun (is_begin, s) ->
      let ts = ((if is_begin then s.start_ns else s.end_ns) - t.t0) / 1000 in
      if is_begin then C.async_begin ct ~ts ~name:s.name ~id:s.op
      else C.async_end ct ~ts ~name:s.name ~id:s.op)
    (List.rev t.log);
  ct

(* One line per span, in start order: id, parent, op, layer, name,
   start and end (µs from the first span) and self time (µs). *)
let to_tsv t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "id\tparent\top\tlayer\tname\tstart_us\tend_us\tself_us\n";
  List.iter
    (fun (s : span) ->
      Printf.bprintf b "%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\n" s.id s.parent s.op
        s.layer s.name
        ((s.start_ns - t.t0) / 1000)
        ((s.end_ns - t.t0) / 1000)
        ((dur s - s.child_ns) / 1000))
    (List.sort (fun (a : span) b -> compare a.id b.id) t.closed);
  Buffer.contents b
