module I = Isa.Instr

(* CDP markers a converted run of [len] instructions needs. *)
let groups len = (len + Cdp_insert.span - 1) / Cdp_insert.span

(* Write body.(s .. e-1), re-encoded, into [out] from [w], a CDP marker
   in front of every [Cdp_insert.span] instructions; returns the next
   free index of [out].  [eligible] has accepted every instruction of
   the run, so [force_thumb] does not test convertibility again. *)
let emit_run ~fresh_uid body s e out w =
  let w = ref w and g = ref s in
  while !g < e do
    let cnt = min Cdp_insert.span (e - !g) in
    out.(!w) <- I.cdp ~uid:(fresh_uid ()) ~following:cnt;
    for k = 0 to cnt - 1 do
      out.(!w + 1 + k) <- I.force_thumb body.(!g + k)
    done;
    w := !w + 1 + cnt;
    g := !g + cnt
  done;
  !w

let eligible i = I.encoding i = I.Arm32 && I.thumb_convertible i

(* Two scans over a block body.  The first finds each maximal run of
   eligible instructions at least [min_run] long and records its bounds
   in [runs] (an int array, grown on demand and shared across the
   compile; a run takes two slots and at most every other instruction
   starts one).  A block with no such run is returned unchanged.
   Otherwise the second fills a fresh array of the final size: each
   run re-encoded behind its markers, everything else as it is. *)
let convert_block ~fresh_uid ~min_run ~runs ~converted ~cdps
    (block : Prog.Block.t) =
  let body = block.Prog.Block.body in
  let n = Array.length body in
  if Array.length !runs < n + 2 then runs := Array.make (2 * n + 2) 0;
  let r = !runs in
  let nr = ref 0 and markers = ref 0 and i = ref 0 in
  while !i < n do
    if eligible body.(!i) then begin
      let s = !i in
      while !i < n && eligible body.(!i) do
        incr i
      done;
      if !i - s >= min_run then begin
        r.(!nr) <- s;
        r.(!nr + 1) <- !i;
        nr := !nr + 2;
        markers := !markers + groups (!i - s)
      end
    end
    else incr i
  done;
  if !nr = 0 then block
  else begin
    let out = Array.make (n + !markers) body.(0) in
    let w = ref 0 and prev = ref 0 in
    for k = 0 to (!nr / 2) - 1 do
      let s = r.(2 * k) and e = r.(2 * k + 1) in
      Array.blit body !prev out !w (s - !prev);
      w := emit_run ~fresh_uid body s e out (!w + s - !prev);
      converted := !converted + (e - s);
      prev := e
    done;
    Array.blit body !prev out !w (n - !prev);
    cdps := !cdps + !markers;
    Prog.Block.with_body out block
  end

let pass ~name ~min_run =
  let apply (_ : Pass.env) program =
    let fresh_uid = Pass.fresh_uids program in
    let converted = ref 0 and cdps = ref 0 and runs = ref [||] in
    let program =
      Prog.Program.map_blocks
        (convert_block ~fresh_uid ~min_run ~runs ~converted ~cdps)
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
