let format_version = "critics-db-1"

let hist_to_buf buf name h =
  Buffer.add_string buf (Printf.sprintf "hist %s\n" name);
  List.iter
    (fun (v, c) -> Buffer.add_string buf (Printf.sprintf "%d %d\n" v c))
    (Util.Dist.Histogram.bins h);
  Buffer.add_string buf "end\n"

let to_string (db : Critic_db.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (format_version ^ "\n");
  Buffer.add_string buf (Printf.sprintf "total_work %d\n" db.total_work);
  Buffer.add_string buf (Printf.sprintf "sites %d\n" (List.length db.sites));
  List.iter
    (fun (s : Critic_db.site) ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %d %.6f %b %s %s %s\n" s.block_id s.start_index
           s.occurrences s.criticality s.convertible
           (String.concat "," (List.map string_of_int s.member_indices))
           (String.concat "," (List.map string_of_int s.uids))
           s.key))
    db.sites;
  hist_to_buf buf "ic_lengths" db.ic_lengths;
  hist_to_buf buf "ic_spreads" db.ic_spreads;
  hist_to_buf buf "chain_gaps" db.chain_gaps;
  Buffer.contents buf

let of_string ?path text =
  let lines = String.split_on_char '\n' text in
  let where = match path with Some p -> p | None -> "<string>" in
  let fail line msg =
    Util.Err.failf Corrupt_input "Db_io %s:%d: %s" where line msg
  in
  match lines with
  | version :: rest when version = format_version ->
    let lineno = ref 1 in
    (* Scalar conversions raise bare [Failure _] ("int_of_string", ...)
       or [Invalid_argument _] ("bool_of_string"); [conv] pins them to
       the file and line like every other diagnostic. *)
    let conv f s =
      try f s with Failure msg | Invalid_argument msg -> fail !lineno msg
    in
    let int_of_string = conv int_of_string in
    let float_of_string = conv float_of_string in
    let bool_of_string = conv bool_of_string in
    let parse_int_list s =
      if s = "" then []
      else String.split_on_char ',' s |> List.map int_of_string
    in
    let next = ref rest in
    let pop () =
      incr lineno;
      match !next with
      | [] -> fail !lineno "unexpected end of input"
      | l :: tl ->
        next := tl;
        l
    in
    let expect_kv key =
      let l = pop () in
      match String.split_on_char ' ' l with
      | [ k; v ] when k = key -> int_of_string v
      | _ -> fail !lineno (Printf.sprintf "expected '%s <int>'" key)
    in
    let total_work = expect_kv "total_work" in
    let nsites = expect_kv "sites" in
    if nsites < 0 then fail !lineno "negative site count";
    let parse_site l =
      match String.index_opt l ' ' with
      | None -> fail !lineno "malformed site"
      | Some _ ->
        (* split into 8 fields, key (last) may contain spaces *)
        let rec split_n acc n s =
          if n = 0 then List.rev (s :: acc)
          else
            match String.index_opt s ' ' with
            | None -> fail !lineno "malformed site"
            | Some i ->
              split_n
                (String.sub s 0 i :: acc)
                (n - 1)
                (String.sub s (i + 1) (String.length s - i - 1))
        in
        (match split_n [] 7 l with
        | [ block; start; occ; crit; conv; idxs; uids; key ] ->
          {
            Critic_db.block_id = int_of_string block;
            start_index = int_of_string start;
            occurrences = int_of_string occ;
            criticality = float_of_string crit;
            convertible = bool_of_string conv;
            member_indices = parse_int_list idxs;
            uids = parse_int_list uids;
            key;
          }
        | _ -> fail !lineno "malformed site")
    in
    let sites = List.init nsites (fun _ -> parse_site (pop ())) in
    let parse_hist name =
      let header = pop () in
      if header <> "hist " ^ name then
        fail !lineno (Printf.sprintf "expected 'hist %s'" name);
      let h = Util.Dist.Histogram.create () in
      let rec go () =
        let l = pop () in
        if l = "end" then h
        else
          match String.split_on_char ' ' l with
          | [ v; c ] ->
            let v = int_of_string v and c = int_of_string c in
            if c < 0 then fail !lineno "negative histogram count";
            Util.Dist.Histogram.addn h v c;
            go ()
          | _ -> fail !lineno "malformed histogram entry"
      in
      go ()
    in
    let ic_lengths = parse_hist "ic_lengths" in
    let ic_spreads = parse_hist "ic_spreads" in
    let chain_gaps = parse_hist "chain_gaps" in
    { Critic_db.sites; total_work; ic_lengths; ic_spreads; chain_gaps }
  | v :: _ ->
    Util.Err.failf Corrupt_input "Db_io %s:1: unsupported format %S (expected %s)"
      where
      (if String.length v > 32 then String.sub v 0 32 else v)
      format_version
  | [] -> Util.Err.failf Corrupt_input "Db_io %s: empty input" where

(* Crash-safe via the shared tmp+rename discipline: a crash mid-write
   leaves the previous database (or nothing) plus a stray .tmp — never
   a truncated file that a later [load] would half-parse.  Durable: the
   profile database is a hand-off artifact (profiled once, applied many
   times), so the save also pays the fsync discipline — data before
   rename, parent directory after — and survives power loss, not just
   process death. *)
let save db path =
  Util.Atomic_io.write ~durable:true path (to_string db)

let sweep_tmp dir = Util.Atomic_io.sweep_tmp dir

let load path = Util.Atomic_io.read_file path |> of_string ~path
