type encoding = Arm32 | Thumb16 | Fused

type cond = Always | Eq | Ne | Gt | Lt | Ge | Le

type mem_signature = {
  region : int;
  stride : int;
  working_set : int;
  randomness : float;
}

type chain_tag = { chain_id : int; pos : int; len : int }

type t = {
  uid : int;
  word : int;
  srcs : Reg.t list;
  mem : mem_signature option;
  chain : chain_tag option;
}

(* [word]'s layout; instr.mli documents it. *)
let opcode_shift = 0
let opcode_mask = 0xF
let cond_shift = 4
let cond_mask = 0x7
let encoding_shift = 7
let encoding_mask = 0x3
let dst_shift = 9
let dst_mask = 0x1F
let cdp_shift = 14

let cond_index = function
  | Always -> 0
  | Eq -> 1
  | Ne -> 2
  | Gt -> 3
  | Lt -> 4
  | Ge -> 5
  | Le -> 6

let encoding_index = function Arm32 -> 0 | Thumb16 -> 1 | Fused -> 2
let encoding_bytes = function Arm32 -> 4 | Thumb16 -> 2 | Fused -> 0

(* Decoding tables, built here and never written again (pool domains
   read them without a lock).  Operand values are immutable, so equal
   ones can be one value: [dst] returns every [Some r] from [dsts], and
   [make] takes every source list of up to two registers from [one_src]
   and [two_srcs].  A program then holds one word per source list
   instead of a fresh list per instruction. *)
let opcodes = Array.init Opcode.count Opcode.of_index
let conds = [| Always; Eq; Ne; Gt; Lt; Ge; Le |]
let encodings = [| Arm32; Thumb16; Fused |]

let dsts =
  Array.init (Reg.count + 1) (fun d -> if d = 0 then None else Some (Reg.r (d - 1)))

let one_src = Array.init Reg.count (fun i -> [ Reg.r i ])

let two_srcs =
  Array.init (Reg.count * Reg.count) (fun i ->
      Reg.r (i / Reg.count) :: one_src.(i mod Reg.count))

let opcode t = opcodes.((t.word lsr opcode_shift) land opcode_mask)
let cond t = conds.((t.word lsr cond_shift) land cond_mask)
let encoding t = encodings.((t.word lsr encoding_shift) land encoding_mask)
let dst t = dsts.((t.word lsr dst_shift) land dst_mask)
let cdp_count t = t.word asr cdp_shift

let pack ~opcode ~cond ~encoding ~dst ~cdp_count =
  if (cdp_count lsl cdp_shift) asr cdp_shift <> cdp_count then
    invalid_arg "Instr: cdp_count out of range";
  (Opcode.to_index opcode lsl opcode_shift)
  lor (cond_index cond lsl cond_shift)
  lor (encoding_index encoding lsl encoding_shift)
  lor ((match dst with None -> 0 | Some r -> Reg.index r + 1) lsl dst_shift)
  lor (cdp_count lsl cdp_shift)

let is_predicated t = (t.word lsr cond_shift) land cond_mask <> cond_index Always

(* Structural mirror of the 16-bit wire format (Encode.encode16): two
   4-bit source fields, one dst field, no predication, registers within
   the Thumb operand range.  It is a separate copy of encode16's field
   rules, not a call into the encoder, so the compiler's scans read the
   packed word here and make no cross-module call per field; test_isa
   checks that, on work instructions, it holds exactly when encode16
   succeeds. *)
let thumb_convertible t =
  (not (is_predicated t))
  && Opcode.thumb_expressible (opcode t)
  && (match t.srcs with
     | [] -> true
     | [ a ] -> Reg.thumb_addressable a
     | [ a; b ] -> Reg.thumb_addressable a && Reg.thumb_addressable b
     | _ -> false)
  && match dst t with None -> true | Some d -> Reg.thumb_addressable d

let shared_srcs = function
  | [ a ] -> one_src.(Reg.index a)
  | [ a; b ] -> two_srcs.((Reg.index a * Reg.count) + Reg.index b)
  | srcs -> srcs

let make ~uid ~opcode ?dst ?(srcs = []) ?(cond = Always) ?(encoding = Arm32)
    ?mem ?chain ?(cdp_count = 0) () =
  (match mem with
  | Some _ when not (Opcode.is_memory opcode) ->
    invalid_arg "Instr.make: memory signature on non-memory opcode"
  | _ -> ());
  let word = pack ~opcode ~cond ~encoding ~dst ~cdp_count in
  let t = { uid; word; srcs = shared_srcs srcs; mem; chain } in
  if encoding = Thumb16 && opcode <> Opcode.Cdp_switch
     && not (thumb_convertible t)
  then invalid_arg "Instr.make: instruction not representable in Thumb16";
  t

let size_bytes t = encoding_bytes (encoding t)

let set_encoding e t =
  let field = encoding_mask lsl encoding_shift in
  { t with
    word = t.word land lnot field lor (encoding_index e lsl encoding_shift) }

let with_encoding encoding t =
  if encoding = Thumb16 && opcode t <> Opcode.Cdp_switch
     && not (thumb_convertible t)
  then invalid_arg "Instr.with_encoding: not Thumb-convertible";
  set_encoding encoding t

let force_thumb t = set_encoding Thumb16 t
let fuse t = set_encoding Fused t
let with_chain chain t = { t with chain }
let with_uid uid t = { t with uid }

let regs_read t =
  match opcode t with
  | Opcode.Store -> t.srcs @ Option.to_list (dst t)
  (* A store reads both its data "dst" and its address sources. *)
  | _ -> t.srcs

let regs_written t =
  match opcode t with
  | Opcode.Store | Opcode.Branch -> []
  | _ -> Option.to_list (dst t)

let cdp ~uid ~following =
  if following < 1 || following > 9 then
    invalid_arg "Instr.cdp: a single CDP announces 1..9 instructions";
  {
    uid;
    (* The CDP half-word shares a 32-bit word with the first chain
       instruction (Fig. 9), so it occupies 16 bits of fetch bandwidth. *)
    word =
      pack ~opcode:Opcode.Cdp_switch ~cond:Always ~encoding:Thumb16 ~dst:None
        ~cdp_count:following;
    srcs = [];
    mem = None;
    chain = None;
  }

let cond_to_string = function
  | Always -> ""
  | Eq -> ".eq"
  | Ne -> ".ne"
  | Gt -> ".gt"
  | Lt -> ".lt"
  | Ge -> ".ge"
  | Le -> ".le"

let pp fmt t =
  let enc =
    match encoding t with Arm32 -> "" | Thumb16 -> ".t16" | Fused -> ".fused"
  in
  let dst =
    match dst t with
    | None -> ""
    | Some r -> Format.asprintf " %a," Reg.pp r
  in
  let srcs =
    t.srcs |> List.map (Format.asprintf "%a" Reg.pp) |> String.concat ", "
  in
  Format.fprintf fmt "%a%s%s%s %s" Opcode.pp (opcode t)
    (cond_to_string (cond t)) enc dst srcs

let structural_key t =
  let b = Buffer.create 24 in
  Buffer.add_string b (Opcode.to_string (opcode t));
  Buffer.add_string b (cond_to_string (cond t));
  (match dst t with
  | None -> ()
  | Some r -> Buffer.add_string b (Printf.sprintf " d%d" (Reg.index r)));
  List.iter
    (fun r -> Buffer.add_string b (Printf.sprintf " s%d" (Reg.index r)))
    t.srcs;
  Buffer.contents b
