type t = {
  work_instructions : int;
  mix : (string * float) list;
  control_share : float;
  cond_branch_share : float;
  taken_share : float;
  mean_run_length : float;
  distinct_blocks : int;
  distinct_functions : int;
  touched_code_bytes : int;
  mean_block_visit : float;
  thumb_convertible_share : float;
}

let of_stream cur =
  let n = ref 0 in
  let work = ref 0 in
  let mix_counts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let blocks = Hashtbl.create 256 in
  let funcs = Hashtbl.create 64 in
  let lines = Hashtbl.create 1024 in
  let control = ref 0 in
  let cond = ref 0 in
  let taken = ref 0 in
  let convertible = ref 0 in
  let block_visits = ref 0 in
  let prev = ref None in
  Prog.Trace.Stream.iter
    (fun (e : Prog.Trace.event) ->
      incr n;
      if Prog.Trace.is_work e then incr work;
      let key = Isa.Opcode.to_string (Isa.Instr.opcode e.instr) in
      Hashtbl.replace mix_counts key
        (1 + Option.value ~default:0 (Hashtbl.find_opt mix_counts key));
      Hashtbl.replace blocks e.block_id ();
      Hashtbl.replace funcs e.func ();
      Hashtbl.replace lines (e.pc lsr 6) ();
      if Isa.Opcode.is_control (Isa.Instr.opcode e.instr) then begin
        incr control;
        if e.is_cond_branch then incr cond;
        if e.taken then incr taken
      end;
      if Isa.Instr.thumb_convertible e.instr then incr convertible;
      (* a visit continues while we advance through the same block's
         body (the synthetic terminator has body_index -1) *)
      (match !prev with
      | Some (pb, pidx)
        when pb = e.block_id && (e.body_index > pidx || e.body_index = -1) ->
        ()
      | _ -> incr block_visits);
      prev := Some (e.block_id, e.body_index))
    cur;
  let fn = float_of_int (max 1 !n) in
  let mix =
    Hashtbl.fold (fun k c acc -> (k, float_of_int c /. fn) :: acc) mix_counts []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  {
    work_instructions = !work;
    mix;
    control_share = float_of_int !control /. fn;
    cond_branch_share = float_of_int !cond /. fn;
    taken_share =
      (if !control = 0 then 0.0
       else float_of_int !taken /. float_of_int !control);
    mean_run_length = (if !taken = 0 then fn else fn /. float_of_int !taken);
    distinct_blocks = Hashtbl.length blocks;
    distinct_functions = Hashtbl.length funcs;
    touched_code_bytes = Hashtbl.length lines * 64;
    mean_block_visit =
      (if !block_visits = 0 then 0.0 else fn /. float_of_int !block_visits);
    thumb_convertible_share = float_of_int !convertible /. fn;
  }

let render t =
  let pct = Util.Stats.pct in
  Util.Text_table.render_kv
    ([
       ("work instructions", string_of_int t.work_instructions);
       ("control transfers", pct t.control_share);
       ("conditional branches", pct t.cond_branch_share);
       ("taken share", pct t.taken_share);
       ("mean run length", Printf.sprintf "%.1f instrs" t.mean_run_length);
       ("distinct blocks", string_of_int t.distinct_blocks);
       ("distinct functions", string_of_int t.distinct_functions);
       ( "touched code",
         Printf.sprintf "%d KB" (t.touched_code_bytes / 1024) );
       ("instrs / block visit", Printf.sprintf "%.1f" t.mean_block_visit);
       ("16-bit representable", pct t.thumb_convertible_share);
     ]
    @ List.map (fun (k, v) -> ("mix: " ^ k, pct v)) t.mix)
