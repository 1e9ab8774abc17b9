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
  opcode : Opcode.t;
  dst : Reg.t option;
  srcs : Reg.t list;
  cond : cond;
  encoding : encoding;
  mem : mem_signature option;
  chain : chain_tag option;
  cdp_count : int;
}

let is_predicated t = t.cond <> Always

(* Structural mirror of the 16-bit wire format (Encode.encode16): two
   4-bit source fields, one dst field, no predication, registers within
   the Thumb operand range.  Encode.thumb_convertible is the operative
   predicate; agreement between the two is qcheck-locked. *)
let thumb_convertible t =
  (not (is_predicated t))
  && Opcode.thumb_expressible t.opcode
  && (match t.srcs with
     | [] -> true
     | [ a ] -> Reg.thumb_addressable a
     | [ a; b ] -> Reg.thumb_addressable a && Reg.thumb_addressable b
     | _ -> false)
  && match t.dst with None -> true | Some d -> Reg.thumb_addressable d

(* Operand values are immutable, so equal ones can be one value: every
   [Some r] and every source list of up to two registers comes from
   these tables, built here and never written again (pool domains read
   them without a lock).  A program then holds one word per operand
   field instead of a fresh block per instruction. *)
let some_reg = Array.init Reg.count (fun i -> Some (Reg.r i))
let one_src = Array.init Reg.count (fun i -> [ Reg.r i ])

let two_srcs =
  Array.init (Reg.count * Reg.count) (fun i ->
      Reg.r (i / Reg.count) :: one_src.(i mod Reg.count))

let shared_dst = function
  | None -> None
  | Some r -> some_reg.(Reg.index r)

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
  let dst = shared_dst dst and srcs = shared_srcs srcs in
  let t = { uid; opcode; dst; srcs; cond; encoding; mem; chain; cdp_count } in
  if encoding = Thumb16 && opcode <> Opcode.Cdp_switch
     && not (thumb_convertible t)
  then invalid_arg "Instr.make: instruction not representable in Thumb16";
  t

let size_bytes t =
  match t.encoding with Arm32 -> 4 | Thumb16 -> 2 | Fused -> 0

let with_encoding encoding t =
  if encoding = Thumb16 && t.opcode <> Opcode.Cdp_switch
     && not (thumb_convertible t)
  then invalid_arg "Instr.with_encoding: not Thumb-convertible";
  { t with encoding }

let force_thumb t = { t with encoding = Thumb16 }
let fuse t = { t with encoding = Fused }
let with_chain chain t = { t with chain }
let with_uid uid t = { t with uid }

let regs_read t =
  match t.opcode with
  | Opcode.Store -> t.srcs @ Option.to_list t.dst
  (* A store reads both its data "dst" and its address sources. *)
  | _ -> t.srcs

let regs_written t =
  match t.opcode with
  | Opcode.Store | Opcode.Branch -> []
  | _ -> Option.to_list t.dst

let cdp ~uid ~following =
  if following < 1 || following > 9 then
    invalid_arg "Instr.cdp: a single CDP announces 1..9 instructions";
  {
    uid;
    opcode = Opcode.Cdp_switch;
    dst = None;
    srcs = [];
    cond = Always;
    encoding = Thumb16;
    (* The CDP half-word shares a 32-bit word with the first chain
       instruction (Fig. 9), so it occupies 16 bits of fetch bandwidth. *)
    mem = None;
    chain = None;
    cdp_count = following;
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
    match t.encoding with Arm32 -> "" | Thumb16 -> ".t16" | Fused -> ".fused"
  in
  let dst =
    match t.dst with
    | None -> ""
    | Some r -> Format.asprintf " %a," Reg.pp r
  in
  let srcs =
    t.srcs |> List.map (Format.asprintf "%a" Reg.pp) |> String.concat ", "
  in
  Format.fprintf fmt "%a%s%s%s %s" Opcode.pp t.opcode
    (cond_to_string t.cond) enc dst srcs

let structural_key t =
  let b = Buffer.create 24 in
  Buffer.add_string b (Opcode.to_string t.opcode);
  Buffer.add_string b (cond_to_string t.cond);
  (match t.dst with
  | None -> ()
  | Some r -> Buffer.add_string b (Printf.sprintf " d%d" (Reg.index r)));
  List.iter
    (fun r -> Buffer.add_string b (Printf.sprintf " s%d" (Reg.index r)))
    t.srcs;
  Buffer.contents b
