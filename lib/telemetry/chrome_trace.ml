type event =
  | Counter of { ts : int; name : string; value : int }
  | Async_b of { ts : int; name : string; id : int }
  | Async_e of { ts : int; name : string; id : int }

type t = {
  ring : event array;
  capacity : int;
  mutable next : int; (* next write position *)
  mutable count : int; (* live events, <= capacity *)
  mutable dropped : int;
}

let dummy = Counter { ts = 0; name = ""; value = 0 }

let create ?(capacity = 65536) () =
  let capacity = max 16 capacity in
  { ring = Array.make capacity dummy; capacity; next = 0; count = 0;
    dropped = 0 }

let push t ev =
  t.ring.(t.next) <- ev;
  t.next <- (t.next + 1) mod t.capacity;
  if t.count < t.capacity then t.count <- t.count + 1
  else t.dropped <- t.dropped + 1

let counter t ~ts ~name ~value = push t (Counter { ts; name; value })
let async_begin t ~ts ~name ~id = push t (Async_b { ts; name; id })
let async_end t ~ts ~name ~id = push t (Async_e { ts; name; id })

let length t = t.count
let dropped t = t.dropped

(* Oldest-first; when the ring has wrapped the oldest event sits at
   [next]. *)
let events t =
  let start = if t.count < t.capacity then 0 else t.next in
  List.init t.count (fun i -> t.ring.((start + i) mod t.capacity))

let to_json t =
  let evs = events t in
  (* Ring truncation can drop one half of an async pair; keep only ids
     seen on both sides so the output always validates. *)
  let begins = Hashtbl.create 16 and ends = Hashtbl.create 16 in
  List.iter
    (function
      | Async_b { name; id; _ } -> Hashtbl.replace begins (name, id) ()
      | Async_e { name; id; _ } -> Hashtbl.replace ends (name, id) ()
      | _ -> ())
    evs;
  let open Util.Json in
  let base ~name ~ph ~ts rest =
    Obj
      ([
         ("name", Str name);
         ("ph", Str ph);
         ("ts", Num (float_of_int ts));
         ("pid", Num 1.);
         ("tid", Num 1.);
       ]
      @ rest)
  in
  let json_events =
    List.filter_map
      (function
        | Counter { ts; name; value } ->
          Some
            (base ~name ~ph:"C" ~ts
               [ ("args", Obj [ ("value", Num (float_of_int value)) ]) ])
        | Async_b { ts; name; id } ->
          if Hashtbl.mem ends (name, id) then
            Some
              (base ~name ~ph:"b" ~ts
                 [ ("cat", Str "chain"); ("id", Num (float_of_int id)) ])
          else None
        | Async_e { ts; name; id } ->
          if Hashtbl.mem begins (name, id) then
            Some
              (base ~name ~ph:"e" ~ts
                 [ ("cat", Str "chain"); ("id", Num (float_of_int id)) ])
          else None)
      evs
  in
  to_string
    (Obj
       [
         ("traceEvents", Arr json_events); ("displayTimeUnit", Str "ms");
       ])

let write_file t path = Util.Atomic_io.write path (to_json t ^ "\n")

let validate text =
  let open Util.Json in
  match parse text with
  | exception Parse_error msg -> Error ("trace does not parse: " ^ msg)
  | json -> (
    try
      let evs = arr (field "traceEvents" json) in
      (* last ts per counter / instant track *)
      let tracks : (string, int) Hashtbl.t = Hashtbl.create 16 in
      (* outstanding async begins: (name, id) -> begin ts *)
      let open_spans : (string * int, int) Hashtbl.t = Hashtbl.create 16 in
      let check_track kind name ts =
        let key = kind ^ ":" ^ name in
        (match Hashtbl.find_opt tracks key with
        | Some prev when ts < prev ->
          failwith
            (Printf.sprintf "track %s goes backwards: %d after %d" key ts
               prev)
        | _ -> ());
        Hashtbl.replace tracks key ts
      in
      List.iter
        (fun ev ->
          let name = str (field "name" ev) in
          let ph = str (field "ph" ev) in
          let ts = int (field "ts" ev) in
          ignore (int (field "pid" ev));
          ignore (int (field "tid" ev));
          match ph with
          | "C" ->
            ignore (int (field "value" (field "args" ev)));
            check_track "C" name ts
          | "i" -> check_track "i" name ts
          | "b" ->
            let id = int (field "id" ev) in
            if str (field "cat" ev) <> "chain" then
              failwith "async event outside the chain category";
            if Hashtbl.mem open_spans (name, id) then
              failwith
                (Printf.sprintf "duplicate async begin %s/%d" name id);
            Hashtbl.replace open_spans (name, id) ts
          | "e" -> (
            let id = int (field "id" ev) in
            match Hashtbl.find_opt open_spans (name, id) with
            | None ->
              failwith
                (Printf.sprintf "async end %s/%d without a begin" name id)
            | Some b_ts ->
              if ts < b_ts then
                failwith
                  (Printf.sprintf "async span %s/%d ends before it begins"
                     name id);
              Hashtbl.remove open_spans (name, id))
          | ph -> failwith (Printf.sprintf "unexpected phase %S" ph))
        evs;
      if Hashtbl.length open_spans > 0 then
        failwith
          (Printf.sprintf "%d async begins without a matching end"
             (Hashtbl.length open_spans));
      Ok (List.length evs)
    with Failure msg -> Error msg)
