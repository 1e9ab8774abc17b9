(* Build a small program by hand with the public API, inspect its
   data-flow graph and instruction chains, and replay the paper's
   worked scheduling example (Figs. 2/4).

   Run with: dune exec examples/chain_explorer.exe *)

module I = Critics.Isa.Instr
module Op = Critics.Isa.Opcode

let r = Critics.Isa.Reg.r

(* A hand-written block exhibiting the mobile pattern: a chain
   root -> link -> tail where the root and tail each feed a burst of
   consumers, with the chain members interspersed among them. *)
let block =
  let uid = ref 0 in
  let mk ?dst ?(srcs = []) op =
    incr uid;
    I.make ~uid:!uid ~opcode:op ?dst ~srcs ()
  in
  let body =
    [|
      mk ~dst:(r 0) Op.Alu;                    (* chain root *)
      mk ~dst:(r 6) ~srcs:[ r 0 ] Op.Alu;      (* consumers of the root *)
      mk ~dst:(r 6) ~srcs:[ r 0 ] Op.Alu;
      mk ~dst:(r 6) ~srcs:[ r 0 ] Op.Alu;
      mk ~dst:(r 6) ~srcs:[ r 0 ] Op.Alu;
      mk ~dst:(r 1) ~srcs:[ r 0 ] Op.Alu;      (* gap link *)
      mk ~dst:(r 6) ~srcs:[ r 1 ] Op.Alu;
      mk ~dst:(r 2) ~srcs:[ r 1 ] Op.Alu;      (* chain tail *)
      mk ~dst:(r 6) ~srcs:[ r 2 ] Op.Alu;      (* consumers of the tail *)
      mk ~dst:(r 6) ~srcs:[ r 2 ] Op.Alu;
      mk ~dst:(r 6) ~srcs:[ r 2 ] Op.Alu;
      mk ~dst:(r 6) ~srcs:[ r 2 ] Op.Alu;
    |]
  in
  Critics.Prog.Block.make ~id:0 ~func:0 ~body
    ~term:(Critics.Prog.Block.Jump 0)

let () =
  let program = Critics.Prog.Program.make ~entry:0 ~blocks:[ block ] in
  let path = Critics.Prog.Walk.path_visits program ~seed:7 ~visits:1 in
  let trace = Critics.Prog.Trace.expand program ~seed:7 path in
  let dfg = Critics.Dfg.of_events trace in

  print_endline "Instructions and fanouts:";
  for i = 0 to Critics.Dfg.size dfg - 1 do
    Format.printf "  [%2d] %a   fanout=%d%s@." i I.pp
      (Critics.Dfg.event dfg i).instr (Critics.Dfg.fanout dfg i)
      (if Critics.Dfg.is_high_fanout ~threshold:4 dfg i then "  <- critical"
       else "")
  done;

  print_endline "\nIndependently schedulable instruction chains (ICs):";
  List.iter
    (fun (ic : Critics.Dfg.Ic.t) ->
      Format.printf "  [%s]  len=%d spread=%d criticality=%.2f@."
        (String.concat " -> " (List.map string_of_int ic.nodes))
        (Critics.Dfg.Ic.length ic)
        (Critics.Dfg.Ic.spread dfg ic)
        (Critics.Dfg.Ic.criticality dfg ic))
    (Critics.Dfg.Ic.enumerate dfg);

  print_endline "\nWorked scheduling example (Figs. 2/4):";
  print_endline
    (Experiments.Worked_example.render (Experiments.Worked_example.example ()))
