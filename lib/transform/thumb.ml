module I = Isa.Instr

(* CDP markers a converted run of [len] instructions needs. *)
let groups len = (len + Cdp_insert.span - 1) / Cdp_insert.span

(* Write body.(s .. e-1), re-encoded, into [out] from [w], a CDP marker
   in front of every [Cdp_insert.span] instructions; returns the next
   free index of [out]. *)
let emit_run ~fresh_uid body s e out w =
  let w = ref w and g = ref s in
  while !g < e do
    let cnt = min Cdp_insert.span (e - !g) in
    out.(!w) <- I.cdp ~uid:(fresh_uid ()) ~following:cnt;
    for k = 0 to cnt - 1 do
      out.(!w + 1 + k) <- I.with_encoding I.Thumb16 body.(!g + k)
    done;
    w := !w + 1 + cnt;
    g := !g + cnt
  done;
  !w

let eligible (i : I.t) = i.encoding = I.Arm32 && Isa.Encode.thumb_convertible i

(* One scan over a block body: each maximal run of eligible
   instructions at least [min_run] long is written re-encoded into
   [scratch] (a marker per group adds at most one slot per
   instruction, so twice the body always fits), everything else is
   copied as it is.  A block with no such run is returned unchanged. *)
let convert_block ~fresh_uid ~min_run ~scratch ~converted ~cdps
    (block : Prog.Block.t) =
  let body = block.Prog.Block.body in
  let n = Array.length body in
  if Array.length !scratch < 2 * n then scratch := Array.make (2 * n) body.(0);
  let out = !scratch in
  let w = ref 0 and i = ref 0 and changed = ref false in
  while !i < n do
    if eligible body.(!i) then begin
      let s = !i in
      while !i < n && eligible body.(!i) do
        incr i
      done;
      if !i - s >= min_run then begin
        w := emit_run ~fresh_uid body s !i out !w;
        changed := true;
        converted := !converted + (!i - s);
        cdps := !cdps + groups (!i - s)
      end
      else begin
        Array.blit body s out !w (!i - s);
        w := !w + (!i - s)
      end
    end
    else begin
      out.(!w) <- body.(!i);
      incr w;
      incr i
    end
  done;
  if !changed then Prog.Block.with_body (Array.sub out 0 !w) block else block

let pass ~name ~min_run =
  let apply (_ : Pass.env) program =
    let fresh_uid = Pass.fresh_uids program in
    let converted = ref 0 and cdps = ref 0 and scratch = ref [||] in
    let program =
      Prog.Program.map_blocks
        (convert_block ~fresh_uid ~min_run ~scratch ~converted ~cdps)
        program
    in
    ( program,
      {
        Report.zero with
        Report.instrs_converted = !converted;
        cdp_inserted = !cdps;
      } )
  in
  { Pass.name; apply }

let opp16 = pass ~name:"opp16" ~min_run:3
let compress = pass ~name:"compress" ~min_run:2
