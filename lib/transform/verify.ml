module I = Isa.Instr

(* Marker instructions inserted by the passes: they carry no dataflow. *)
let is_marker (i : I.t) =
  let op = I.opcode i in
  op = Isa.Opcode.Cdp_switch
  || (Isa.Opcode.is_control op && I.dst i = None && i.srcs = [])

(* For every non-marker instruction: (uid, source reg, producer uid or
   -1 when the value comes from outside the block), plus the block's
   final writer per register. *)
let dataflow_summary (b : Prog.Block.t) =
  let last = Array.make Isa.Reg.count (-1) in
  let reads = ref [] in
  Array.iter
    (fun (ins : I.t) ->
      if not (is_marker ins) then begin
        List.iter
          (fun src ->
            reads :=
              (ins.I.uid, Isa.Reg.index src, last.(Isa.Reg.index src))
              :: !reads)
          (I.regs_read ins);
        List.iter
          (fun d -> last.(Isa.Reg.index d) <- ins.I.uid)
          (I.regs_written ins)
      end)
    b.body;
  (List.sort compare !reads, Array.to_list last)

(* After sparse compilation nearly every block is physically shared. *)
let dataflow_equivalent a b = a == b || dataflow_summary a = dataflow_summary b

let describe_producer p = if p < 0 then "outside the block" else Printf.sprintf "uid %d" p

(* First point where two summaries disagree, as prose naming the
   offending instruction uid — what a fuzzer counterexample needs. *)
let block_divergence a b =
  if dataflow_equivalent a b then None
  else begin
    let ra, la = dataflow_summary a and rb, lb = dataflow_summary b in
    let rec first_read_diff xs ys =
      match (xs, ys) with
      | [], [] -> None
      | (u, s, p) :: _, [] ->
        Some
          (Printf.sprintf
             "instruction uid %d lost its read of r%d (from %s)" u s
             (describe_producer p))
      | [], (u, s, p) :: _ ->
        Some
          (Printf.sprintf "instruction uid %d gained a read of r%d (from %s)"
             u s (describe_producer p))
      | ((u, s, p) as x) :: xs', ((u', s', p') as y) :: ys' ->
        if x = y then first_read_diff xs' ys'
        else if u = u' && s = s' then
          Some
            (Printf.sprintf
               "instruction uid %d now reads r%d from %s instead of %s" u s
               (describe_producer p') (describe_producer p))
        else if x < y then
          Some
            (Printf.sprintf "instruction uid %d lost its read of r%d (from %s)"
               u s (describe_producer p))
        else
          Some
            (Printf.sprintf
               "instruction uid %d gained a read of r%d (from %s)" u' s'
               (describe_producer p'))
    in
    match first_read_diff ra rb with
    | Some msg -> Some msg
    | None ->
      (* Reads agree: a final register writer changed. *)
      let rec writer_diff r xs ys =
        match (xs, ys) with
        | x :: xs', y :: ys' ->
          if x = y then writer_diff (r + 1) xs' ys'
          else
            Some
              (Printf.sprintf "final writer of r%d changed from %s to %s" r
                 (describe_producer x) (describe_producer y))
        | _ -> Some "dataflow summaries differ (unlocated)"
      in
      writer_diff 0 la lb
  end

let check_pass pass program =
  let program', report = pass program in
  let a = Prog.Program.blocks program and b = Prog.Program.blocks program' in
  if Array.length a <> Array.length b then
    Error
      (Printf.sprintf "block count changed from %d to %d" (Array.length a)
         (Array.length b))
  else begin
    let bad = ref None in
    Array.iteri
      (fun i block ->
        if !bad = None then
          match block_divergence block b.(i) with
          | None -> ()
          | Some detail ->
            bad :=
              Some
                (Printf.sprintf
                   "dataflow changed in block %d (func %d, index %d): %s"
                   block.Prog.Block.id block.Prog.Block.func i detail))
      a;
    match !bad with
    | Some msg -> Error msg
    | None -> Ok (program', report)
  end

let program_equivalent p p' = Result.is_ok (check_pass (fun _ -> (p', ())) p)
