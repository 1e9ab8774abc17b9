(* Per-event energies, calibrated to the Nexus-7-class breakdown. *)
type params = {
  core_dynamic_nj : float;  (* per committed instruction *)
  core_static_nj : float;  (* per cycle (leakage + clock tree) *)
  l1_access_nj : float;  (* per i-cache or d-cache access *)
  l2_access_nj : float;
  dram_access_nj : float;
  rest_of_soc_nj : float;  (* per unit of work: display, radios, ASICs *)
  cdp_logic_nj : float;
      (* per CDP marker: the Synopsys synthesis of the switch logic
         reports 58 µW dynamic / 414 nW leakage on 80 µm², i.e.
         effectively negligible *)
}

let params =
  {
    core_dynamic_nj = 0.08;
    core_static_nj = 0.35;
    l1_access_nj = 0.2;
    l2_access_nj = 0.6;
    dram_access_nj = 15.0;
    (* Rest-of-SoC draw is charged per unit of app work, not per cycle:
       the display and radios stay on for the same user-visible duration
       however fast the CPU finishes its share, so CPU optimizations do
       not reduce it.  This matches the paper's roll-up where a 15 % CPU
       saving becomes 4.6 % system-wide. *)
    rest_of_soc_nj = 0.4;
    cdp_logic_nj = 0.001;
  }

type breakdown = {
  cpu : float;
  icache : float;
  dcache : float;
  l2 : float;
  dram : float;
  rest : float;
  total : float;
}

let of_stats (s : Pipeline.Stats.t) =
  let fi = float_of_int in
  let cpu =
    (params.core_dynamic_nj *. fi s.committed_total)
    +. (params.core_static_nj *. fi s.cycles)
    +. (params.cdp_logic_nj *. fi s.cdp_markers)
  in
  let icache = params.l1_access_nj *. fi s.l1i.accesses in
  let dcache = params.l1_access_nj *. fi s.l1d.accesses in
  let l2 = params.l2_access_nj *. fi s.l2.accesses in
  let dram = params.dram_access_nj *. fi (s.dram.reads + s.dram.writes) in
  let rest = params.rest_of_soc_nj *. fi s.committed_work in
  let total = cpu +. icache +. dcache +. l2 +. dram +. rest in
  { cpu; icache; dcache; l2; dram; rest; total }

type saving = {
  cpu_contrib : float;
  icache_contrib : float;
  memory_contrib : float;
  rest_contrib : float;
  system : float;
  cpu_only : float;
}

let saving ~base ~optimized =
  let contrib b o = (b -. o) /. base.total in
  {
    cpu_contrib = contrib base.cpu optimized.cpu;
    icache_contrib = contrib base.icache optimized.icache;
    memory_contrib =
      contrib
        (base.dcache +. base.l2 +. base.dram)
        (optimized.dcache +. optimized.l2 +. optimized.dram);
    rest_contrib = contrib base.rest optimized.rest;
    system = (base.total -. optimized.total) /. base.total;
    cpu_only = (base.cpu -. optimized.cpu) /. base.cpu;
  }
