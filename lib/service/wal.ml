let header = "CRTWAL01"
let frame_bytes = 4 + 8 + 16 (* len + seq + digest *)
let max_id_bytes = 0xFFFF
let max_body = 16 * 1024 * 1024

type t = {
  path : string;
  mutable fd : Unix.file_descr option;
  inject : Util.Atomic_io.injector option;
}

let open_writer ?inject path =
  if not (Sys.file_exists path) then
    (* The empty log is born durable: header via tmp+rename+fsync, so a
       crash during creation leaves nothing or a complete empty log,
       never a half-written magic that scan would reject. *)
    Util.Atomic_io.write ~durable:true ?inject path header;
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  { path; fd = Some fd; inject }

let fd_exn t =
  match t.fd with
  | Some fd -> fd
  | None -> invalid_arg "Wal: closed writer"

let size t = (Unix.fstat (fd_exn t)).Unix.st_size

let close t =
  match t.fd with
  | None -> ()
  | Some fd ->
    t.fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

let encode_record ~seq ~id ~payload =
  let id_len = String.length id in
  if id_len > max_id_bytes then invalid_arg "Wal.append: id longer than 65535";
  let body_len = 2 + id_len + String.length payload in
  if body_len > max_body then invalid_arg "Wal.append: oversized record";
  let b = Bytes.create (frame_bytes + body_len) in
  Bytes.set_uint16_le b frame_bytes id_len;
  Bytes.blit_string id 0 b (frame_bytes + 2) id_len;
  Bytes.blit_string payload 0 b
    (frame_bytes + 2 + id_len)
    (String.length payload);
  (* Digest binds body to its sequence number: a record blitted to the
     wrong offset or re-framed by corruption cannot verify.  Its input
     [seq_le ^ body] is laid out in place, the sequence number in the 8
     bytes before the body, which the digest then overwrites. *)
  Bytes.set_int64_le b (frame_bytes - 8) (Int64.of_int seq);
  let digest = Digest.subbytes b (frame_bytes - 8) (8 + body_len) in
  Bytes.set_int32_le b 0 (Int32.of_int body_len);
  Bytes.set_int64_le b 4 (Int64.of_int seq);
  Bytes.blit_string digest 0 b 12 16;
  Bytes.unsafe_to_string b

let append t ~seq ~id ~payload =
  let fd = fd_exn t in
  let record = encode_record ~seq ~id ~payload in
  let start = (Unix.fstat fd).Unix.st_size in
  try
    Util.Atomic_io.injected_write t.inject ~op:"wal.write" fd record;
    match t.inject with
    | None -> Unix.fsync fd
    | Some inject ->
      Util.Atomic_io.with_injection inject ~op:"wal.fsync" (fun () ->
          Unix.fsync fd)
  with
  | Unix.Unix_error _ as e ->
    (* Contained failure (ENOSPC, short write surfaced as an error):
       drop the partial tail so the log is exactly as before the
       append, then let the service refuse the ack. *)
    (try Unix.ftruncate fd start with Unix.Unix_error _ -> ());
    raise e
  | Util.Atomic_io.Injected_crash _ as e ->
    (* Simulated process death: the torn tail stays, recovery truncates
       it. *)
    raise e

type record = { seq : int; id : string; payload : string }

type scan = { records : record list; good_bytes : int; torn_bytes : int }

let scan path =
  if not (Sys.file_exists path) then
    Ok { records = []; good_bytes = 0; torn_bytes = 0 }
  else begin
    let text = Util.Atomic_io.read_file path in
    let n = String.length text in
    let hlen = String.length header in
    if n < hlen || String.sub text 0 hlen <> header then
      Error (Printf.sprintf "%s: not a WAL (bad magic)" path)
    else begin
      let records = ref [] in
      let pos = ref hlen in
      let stop = ref false in
      while not !stop do
        if !pos + frame_bytes > n then stop := true
        else begin
          let b = Bytes.unsafe_of_string text in
          let body_len = Int32.to_int (Bytes.get_int32_le b !pos) in
          if body_len < 2 || body_len > max_body || !pos + frame_bytes + body_len > n
          then stop := true
          else begin
            let seq = Int64.to_int (Bytes.get_int64_le b (!pos + 4)) in
            let digest = String.sub text (!pos + 12) 16 in
            let seq_le = String.sub text (!pos + 4) 8 in
            let body = String.sub text (!pos + frame_bytes) body_len in
            if Digest.string (seq_le ^ body) <> digest then stop := true
            else begin
              let id_len = Bytes.get_uint16_le b (!pos + frame_bytes) in
              if 2 + id_len > body_len then stop := true
              else begin
                let id = String.sub body 2 id_len in
                let payload =
                  String.sub body (2 + id_len) (body_len - 2 - id_len)
                in
                records := { seq; id; payload } :: !records;
                pos := !pos + frame_bytes + body_len
              end
            end
          end
        end
      done;
      Ok
        {
          records = List.rev !records;
          good_bytes = !pos;
          torn_bytes = n - !pos;
        }
    end
  end

let truncate_to path good_bytes =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.ftruncate fd good_bytes;
      Unix.fsync fd)
