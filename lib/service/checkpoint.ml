let magic = "CRTCKP01"

type t = { seq : int; ids : (string * int) list; registry : string }

(* An id table as the file holds it: [count] entries
   "<idlen>:<id bytes> <seq>\n", sorted by id then seq, in the first
   [len] bytes of [bytes]. *)
type table = { bytes : string; len : int; count : int }

(* The id table in the order polymorphic [compare] gives its pairs. *)
let compare_id (a, x) (b, y) =
  let c = String.compare a b in
  if c <> 0 then c else Int.compare x y

let entry_len id s =
  let k = String.length id in
  Util.Decimal.width k + k + Util.Decimal.width s + 3

let put_entry b pos id s =
  let k = String.length id in
  let p = Util.Decimal.put b pos k in
  Bytes.set b p ':';
  Bytes.blit_string id 0 b (p + 1) k;
  Bytes.set b (p + 1 + k) ' ';
  let p = Util.Decimal.put b (p + 2 + k) s in
  Bytes.set b p '\n';
  p + 1

let table ids =
  let ids = List.sort compare_id ids in
  let b =
    Bytes.create (List.fold_left (fun n (id, s) -> n + entry_len id s) 0 ids)
  in
  let len = List.fold_left (fun p (id, s) -> put_entry b p id s) 0 ids in
  { bytes = Bytes.unsafe_to_string b; len; count = List.length ids }

(* [String.compare (String.sub src a n) id], without the copy. *)
let rec compare_span src a n id i =
  if i = n || i = String.length id then Int.compare n (String.length id)
  else
    let c = Char.compare src.[a + i] (String.unsafe_get id i) in
    if c <> 0 then c else compare_span src a n id (i + 1)

(* The decimal integer in [src] from [i] to [stop]: what [Util.Decimal]
   wrote there. *)
let int_at src i stop =
  let neg = src.[i] = '-' in
  let v = ref 0 in
  for j = (if neg then i + 1 else i) to stop - 1 do
    v := (!v * 10) - (Char.code src.[j] - 48)
  done;
  if neg then !v else - !v

(* The applied pairs sorted by id, one per id: its greatest seq, unless
   that is dropped. *)
let one_per_id applied ~floor =
  let rec go acc = function
    | [] -> List.rev acc
    | (id, s) :: rest ->
      let rec skip = function
        | (id', _) :: rest when String.equal id id' -> skip rest
        | rest -> rest
      in
      go (if floor > 0 && s <= floor then acc else (id, s) :: acc) (skip rest)
  in
  go []
    (List.sort
       (fun (a, x) (b, y) ->
         let c = String.compare a b in
         if c <> 0 then c else Int.compare y x)
       applied)

let merge t ~applied ~floor =
  let fresh = ref (one_per_id applied ~floor) in
  let b =
    Bytes.create
      (List.fold_left (fun n (id, s) -> n + entry_len id s) t.len !fresh)
  in
  let src = t.bytes and out = ref 0 and count = ref 0 in
  (* Kept entries are copied in runs, from [run] to the entry at hand. *)
  let run = ref 0 in
  let flush upto =
    Bytes.blit_string src !run b !out (upto - !run);
    out := !out + (upto - !run)
  in
  let emit id s =
    out := put_entry b !out id s;
    incr count
  in
  let p = ref 0 in
  while !p < t.len do
    let start = !p in
    let i = ref start and idlen = ref 0 in
    while src.[!i] <> ':' do
      idlen := (!idlen * 10) + Char.code src.[!i] - 48;
      incr i
    done;
    let id_at = !i + 1 in
    let seq_at = id_at + !idlen + 1 in
    let nl = ref seq_at in
    while src.[!nl] <> '\n' do
      incr nl
    done;
    let next = !nl + 1 in
    (* Fresh pairs that sort before this entry go first; one with its
       id replaces it. *)
    let c = ref 1 in
    while !c > 0 do
      match !fresh with
      | [] -> c := -1
      | (id, s) :: rest ->
        c := compare_span src id_at !idlen id 0;
        if !c >= 0 then begin
          flush start;
          run := if !c = 0 then next else start;
          emit id s;
          fresh := rest
        end
    done;
    if !c < 0 then
      if floor > 0 && int_at src seq_at !nl <= floor then begin
        flush start;
        run := next
      end
      else incr count;
    p := next
  done;
  flush t.len;
  List.iter (fun (id, s) -> emit id s) !fresh;
  { bytes = Bytes.unsafe_to_string b; len = !out; count = !count }

let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let put_field b pos name v =
  let p = put_string b pos name in
  Bytes.set b p ' ';
  let p = Util.Decimal.put b (p + 1) v in
  Bytes.set b p '\n';
  p + 1

(* The one encoder.  The file is sized first and built in one buffer,
   header first; the body is then digested where it lies and its digest
   written into the header. *)
let save_table ?inject path ~seq table ~registry =
  let field_len name v = String.length name + Util.Decimal.width v + 2 in
  let rlen = String.length registry in
  let body_len =
    field_len "seq" seq + field_len "ids" table.count + table.len
    + field_len "registry" rlen + rlen
  in
  let header_len = String.length magic + 35 + Util.Decimal.width body_len in
  let b = Bytes.create (header_len + body_len) in
  let digest_at = put_string b 0 magic + 1 in
  Bytes.set b (digest_at - 1) ' ';
  Bytes.set b (digest_at + 32) ' ';
  let p = Util.Decimal.put b (digest_at + 33) body_len in
  Bytes.set b p '\n';
  let p = put_field b (p + 1) "seq" seq in
  let p = put_field b p "ids" table.count in
  Bytes.blit_string table.bytes 0 b p table.len;
  let p = put_field b (p + table.len) "registry" rlen in
  ignore (put_string b p registry);
  Bytes.blit_string
    (Digest.to_hex (Digest.subbytes b header_len body_len))
    0 b digest_at 32;
  Util.Atomic_io.write ~durable:true ?inject path (Bytes.unsafe_to_string b)

let save ?inject path t =
  save_table ?inject path ~seq:t.seq (table t.ids) ~registry:t.registry

exception Bad of string

let load path =
  if not (Sys.file_exists path) then Ok None
  else begin
    try
      let text = Util.Atomic_io.read_file path in
      let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
      let nl =
        match String.index_opt text '\n' with
        | Some i -> i
        | None -> fail "missing header line"
      in
      let body =
        match String.split_on_char ' ' (String.sub text 0 nl) with
        | [ m; digest; len ] -> (
          match int_of_string_opt len with
          | Some n when m = magic && String.length text - nl - 1 = n ->
            let body = String.sub text (nl + 1) n in
            if Digest.to_hex (Digest.string body) <> digest then
              fail "body digest mismatch"
            else body
          | _ -> fail "bad header frame")
        | _ -> fail "bad header"
      in
      (* Cursor-parse the body: line-oriented header fields, a
         length-framed id table, then raw registry bytes.  Id entries
         are parsed purely by their length prefix — never with line()
         — because ids are client-chosen and may contain any byte,
         '\n' included. *)
      let pos = ref 0 in
      let len = String.length body in
      let line () =
        match String.index_from_opt body !pos '\n' with
        | None -> fail "truncated body"
        | Some i ->
          let l = String.sub body !pos (i - !pos) in
          pos := i + 1;
          l
      in
      let int_field name =
        match String.split_on_char ' ' (line ()) with
        | [ k; v ] when k = name -> (
          match int_of_string_opt v with
          | Some n -> n
          | None -> fail "bad %s value" name)
        | _ -> fail "expected %s line" name
      in
      let seq = int_field "seq" in
      let nids = int_field "ids" in
      if nids < 0 then fail "bad ids value";
      let ids =
        List.init nids (fun _ ->
            let colon =
              match String.index_from_opt body !pos ':' with
              | None -> fail "bad id frame"
              | Some i -> i
            in
            let idlen =
              match int_of_string_opt (String.sub body !pos (colon - !pos)) with
              | Some n when n >= 0 -> n
              | _ -> fail "bad id frame length"
            in
            (* "<idlen>:<id bytes> <seq>\n" — the id bytes are taken
               verbatim by length; only the delimiters around them are
               structural. *)
            if idlen > len - colon - 2 then fail "truncated id frame";
            let id = String.sub body (colon + 1) idlen in
            if body.[colon + 1 + idlen] <> ' ' then fail "bad id frame";
            let seq_start = colon + 1 + idlen + 1 in
            let nl =
              match String.index_from_opt body seq_start '\n' with
              | None -> fail "truncated id frame"
              | Some i -> i
            in
            match int_of_string_opt (String.sub body seq_start (nl - seq_start))
            with
            | Some s ->
              pos := nl + 1;
              (id, s)
            | None -> fail "bad id seq")
      in
      let reg_len = int_field "registry" in
      if len - !pos <> reg_len then fail "registry length mismatch";
      let registry = String.sub body !pos reg_len in
      Ok (Some { seq; ids; registry })
    with
    | Bad msg -> Error (Printf.sprintf "%s: %s" path msg)
    | Sys_error msg -> Error msg
  end
