(* Byte damage for the totality properties of text decoders:
   truncation, a flipped bit, a span replaced by random bytes or by a
   token that text formats give meaning to, and a duplicated span.
   Each case applies a chain of one to three of them. *)

let tokens =
  [| " "; "\n"; "-"; "-1"; "0"; ","; ":"; "\""; "\\u"; "["; "{"; "]"; "}";
     "true"; "nan"; "1e999"; "4611686018427387904" |]

let damage rand s =
  let module G = QCheck.Gen in
  let n = String.length s in
  let at () = G.int_bound n rand in
  match G.int_bound 3 rand with
  | 0 -> String.sub s 0 (at ())
  | 1 when n > 0 ->
    let i = G.int_bound (n - 1) rand in
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl G.int_bound 7 rand)));
    Bytes.to_string b
  | 2 ->
    let i = at () in
    let cut = min (n - i) (G.int_bound 8 rand) in
    let piece =
      if G.bool rand then G.string_size ~gen:G.char (G.int_bound 8) rand
      else G.oneofa tokens rand
    in
    String.sub s 0 i ^ piece ^ String.sub s (i + cut) (n - i - cut)
  | _ ->
    let i = at () in
    let len = min (n - i) (G.int_range 1 64 rand) in
    String.sub s 0 (i + len) ^ String.sub s i (n - i)

(* [count] damaged copies of [s], drawn from [seed]. *)
let variants ~count ~seed s =
  let rand = Random.State.make [| seed |] in
  List.init count (fun _ ->
      let rec chain s k = if k = 0 then s else chain (damage rand s) (k - 1) in
      chain s (1 + Random.State.int rand 3))
