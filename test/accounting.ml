(* The accounting contract between a probe and the simulator: for each
   population, the sums of the probe's [window/<pop>/<field>]
   histograms equal that population's stage summary in [Stats], field
   for field.  The probe keeps no run totals, so its registry is the
   one place its windows are summed. *)

module P = Telemetry.Probe

let fields =
  [
    "count"; "fetch_i"; "fetch_rd"; "decode"; "rename"; "issue_wait";
    "execute"; "commit_wait";
  ]

let summary_fields (s : Pipeline.Stats.stage_summary) =
  [
    s.count; s.fetch_i; s.fetch_rd; s.decode; s.rename; s.issue_wait;
    s.execute; s.commit_wait;
  ]

(* Every population's fields as [Stats] has them and as the probe's
   window histograms sum them, both named [window/<pop>/<field>]. *)
let sides probe (st : Pipeline.Stats.t) =
  let snap = Telemetry.Registry.snapshot (P.registry probe) in
  let sum name =
    match List.assoc_opt name snap with
    | Some (Telemetry.Registry.Histogram_v h) -> h.sum
    | _ -> 0
  in
  let pop p summary =
    List.map2
      (fun field v ->
        let name = "window/" ^ P.population_name p ^ "/" ^ field in
        ((name, v), (name, sum name)))
      fields (summary_fields summary)
  in
  List.split
    (pop P.All st.stage_all
    @ pop P.Critical st.stage_critical
    @ pop P.Chain st.stage_chain)

let holds probe st =
  let stats, windows = sides probe st in
  stats = windows
