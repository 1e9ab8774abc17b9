(* The deployment story of the paper (Sec. III-A2): apps are profiled
   *before* publication — emulator traces, simulator fanout tracking,
   offline aggregation — and the resulting CritIC database ships to the
   on-device compiler.  This example splits the flow the same way:

     phase 1 (vendor side): profile the app, save the database to disk;
     phase 2 (device side): load the database, run the compiler pass,
                            measure the result.

   Run with: dune exec examples/offline_pipeline.exe *)

let () =
  let app = Option.get (Critics.Workload.Apps.find "Office") in
  let db_file = Filename.temp_file "office" ".critics-db" in

  (* ---- phase 1: the vendor's profiling run --------------------- *)
  let vendor_ctx = Critics.Run.prepare ~instrs:100_000 app in
  Critics.Profiler.Db_io.save vendor_ctx.db db_file;
  Printf.printf "phase 1: profiled %s, %d chain sites -> %s\n" app.name
    (List.length vendor_ctx.db.sites)
    db_file;

  (* ---- phase 2: the device compiles with the shipped database -- *)
  let db = Critics.Profiler.Db_io.load db_file in
  Printf.printf "phase 2: loaded %d sites (coverage %s)\n"
    (List.length db.sites)
    (Critics.Util.Stats.pct (Critics.Profiler.Critic_db.coverage db));

  (* The device user runs a *different* execution sample than the one
     the vendor profiled — the whole point of profile-driven
     compilation is that chains generalize across runs. *)
  let device_ctx = Critics.Run.prepare ~instrs:100_000 ~sample:3 app in
  let program', report =
    Critics.Scheme.compile Critics.Scheme.Critic db device_ctx.program
  in
  Printf.printf
    "compiler: %d sites applied, %d instructions converted, %d CDPs\n"
    report.sites_applied report.instrs_converted report.cdp_inserted;

  let base =
    Critics.Pipeline.Cpu.run_stream Critics.Pipeline.Config.table_i
      (fun () -> Critics.Run.stream device_ctx Critics.Scheme.Baseline)
  in
  let critic =
    Critics.Pipeline.Cpu.run_stream Critics.Pipeline.Config.table_i
      (fun () ->
        Critics.Prog.Trace.Stream.of_program program' ~seed:device_ctx.seed
          device_ctx.path)
  in
  Printf.printf "device: %s speedup on an unprofiled execution sample\n"
    (Critics.Util.Stats.pct (Critics.Run.speedup ~base critic));
  Sys.remove db_file
