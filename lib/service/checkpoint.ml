let magic = "CRTCKP01"

type t = { seq : int; ids : (string * int) list; registry : string }

(* The id table in the order polymorphic [compare] gives its pairs. *)
let compare_id (a, x) (b, y) =
  let c = String.compare a b in
  if c <> 0 then c else Int.compare x y

let body_of t =
  let buf =
    Buffer.create
      (64 + (24 * List.length t.ids) + String.length t.registry)
  in
  let field name v =
    Buffer.add_string buf name;
    Buffer.add_char buf ' ';
    Util.Decimal.add buf v;
    Buffer.add_char buf '\n'
  in
  field "seq" t.seq;
  field "ids" (List.length t.ids);
  List.iter
    (fun (id, seq) ->
      Util.Decimal.add buf (String.length id);
      Buffer.add_char buf ':';
      field id seq)
    (List.sort compare_id t.ids);
  field "registry" (String.length t.registry);
  Buffer.add_string buf t.registry;
  Buffer.contents buf

let save ?inject path t =
  let body = body_of t in
  let buf = Buffer.create (String.length body + 64) in
  Buffer.add_string buf magic;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Digest.to_hex (Digest.string body));
  Buffer.add_char buf ' ';
  Util.Decimal.add buf (String.length body);
  Buffer.add_char buf '\n';
  Buffer.add_string buf body;
  Util.Atomic_io.write ~durable:true ?inject path (Buffer.contents buf)

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
