module I = Isa.Instr

let convert_run ~fresh_uid run =
  if run = [] then invalid_arg "Thumb.convert_run: empty run";
  List.iter
    (fun i ->
      if not (Isa.Encode.thumb_convertible i) then
        invalid_arg "Thumb.convert_run: non-convertible instruction")
    run;
  let groups = Chains.chunk Cdp_insert.span run in
  let out =
    List.concat_map
      (fun group ->
        I.cdp ~uid:(fresh_uid ()) ~following:(List.length group)
        :: List.map (I.with_encoding I.Thumb16) group)
      groups
  in
  ( out,
    {
      Report.zero with
      Report.instrs_converted = List.length run;
      cdp_inserted = List.length groups;
    } )

(* Split a block body into maximal runs of eligible instructions and
   convert the runs of at least [min_run], adding to the pass's counts
   (a report per block would allocate on every block). *)
let convert_block ~fresh_uid ~min_run ~converted ~cdps block =
  let eligible (i : I.t) =
    i.encoding = I.Arm32
    && i.opcode <> Isa.Opcode.Cdp_switch
    && Isa.Encode.thumb_convertible i
  in
  let out = ref [] in
  let flush_run run =
    match run with
    | [] -> ()
    | run when List.length run >= min_run ->
      let run', r = convert_run ~fresh_uid (List.rev run) in
      converted := !converted + r.Report.instrs_converted;
      cdps := !cdps + r.Report.cdp_inserted;
      List.iter (fun i -> out := i :: !out) run'
    | run -> List.iter (fun i -> out := i :: !out) (List.rev run)
  in
  let run = ref [] in
  Array.iter
    (fun ins ->
      if eligible ins then run := ins :: !run
      else begin
        flush_run !run;
        run := [];
        out := ins :: !out
      end)
    block.Prog.Block.body;
  flush_run !run;
  Prog.Block.with_body (Array.of_list (List.rev !out)) block

let pass ~name ~min_run =
  let apply (_ : Pass.env) program =
    let fresh_uid = Pass.fresh_uids program in
    let converted = ref 0 and cdps = ref 0 in
    let program =
      Prog.Program.map_blocks
        (convert_block ~fresh_uid ~min_run ~converted ~cdps)
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
