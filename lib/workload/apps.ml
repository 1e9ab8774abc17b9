let kb n = n * 1024
let mb n = n * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Suite baselines                                                     *)
(* ------------------------------------------------------------------ *)

let mobile_base : Profile.t =
  {
    name = "mobile-base";
    suite = Profile.Mobile;
    activity = "";
    seed = 0;
    functions = 900;
    dispatcher_slots = 48;
    blocks_per_function = (2, 5);
    body_instrs = (40, 62);
    call_prob = 0.22;
    call_locality = 0.55;
    branch_prob = 0.35;
    loop_prob = 0.15;
    loop_iterations = 6;
    branch_bias = (0.55, 0.9);
    chain_groups = (1, 1);
    spine_len = (3, 4);
    chain_gap = (1, 2);
    fanout = (6, 9);
    gap_fanout = (1, 2);
    chain_linked = false;
    spine_load_frac = 0.6;
    isolated_groups = (0, 0);
    isolated_fanout = (0, 0);
    loop_carried = false;
    leaf_load_frac = 0.15;
    leaf_store_frac = 0.08;
    load_frac = 0.2;
    store_frac = 0.1;
    mul_frac = 0.02;
    div_frac = 0.002;
    fp_frac = 0.02;
    predicated_frac = 0.25;
    high_reg_frac = 0.12;
    chain_unconvertible_frac = 0.012;
    regions = 4;
    load_stride = 16;
    load_working_set = kb 32;
    load_randomness = 0.15;
  }

let spec_int_base : Profile.t =
  {
    mobile_base with
    name = "spec-int-base";
    suite = Profile.Spec_int;
    functions = 36;
    dispatcher_slots = 8;
    blocks_per_function = (4, 8);
    body_instrs = (20, 40);
    call_prob = 0.04;
    call_locality = 0.8;
    branch_prob = 0.45;
    loop_prob = 0.6;
    loop_iterations = 40;
    branch_bias = (0.2, 0.7);
    chain_groups = (0, 1);
    spine_len = (2, 3);
    chain_gap = (3, 8);
    fanout = (9, 14);
    gap_fanout = (0, 1);
    chain_linked = false;
    spine_load_frac = 0.7;
    isolated_groups = (1, 1);
    isolated_fanout = (12, 24);
    loop_carried = true;
    leaf_load_frac = 0.08;
    leaf_store_frac = 0.05;
    load_frac = 0.22;
    store_frac = 0.1;
    mul_frac = 0.05;
    div_frac = 0.01;
    fp_frac = 0.02;
    predicated_frac = 0.1;
    high_reg_frac = 0.15;
    chain_unconvertible_frac = 0.15;
    regions = 8;
    load_stride = 24;
    load_working_set = mb 8;
    load_randomness = 0.35;
  }

let spec_float_base : Profile.t =
  {
    spec_int_base with
    name = "spec-float-base";
    suite = Profile.Spec_float;
    functions = 24;
    dispatcher_slots = 6;
    blocks_per_function = (3, 7);
    body_instrs = (30, 60);
    call_prob = 0.03;
    branch_prob = 0.3;
    loop_prob = 0.75;
    loop_iterations = 80;
    branch_bias = (0.3, 0.85);
    chain_groups = (0, 1);
    chain_gap = (4, 8);
    isolated_groups = (1, 2);
    isolated_fanout = (14, 28);
    spine_load_frac = 0.85;
    load_frac = 0.25;
    store_frac = 0.08;
    mul_frac = 0.02;
    div_frac = 0.01;
    fp_frac = 0.45;
    load_stride = 64;
    load_working_set = mb 16;
    load_randomness = 0.05;
  }

(* ------------------------------------------------------------------ *)
(* Table II mobile apps                                                *)
(* ------------------------------------------------------------------ *)

let mobile =
  [
    {
      mobile_base with
      name = "Acrobat";
      activity = "View, add comment";
      seed = 101;
      chain_groups = (1, 2);
      functions = 1000;
      body_instrs = (44, 66);
    };
    {
      mobile_base with
      name = "Angrybirds";
      activity = "1 level of game";
      seed = 102;
      mul_frac = 0.05;
      fp_frac = 0.08;
      loop_prob = 0.25;
      loop_iterations = 10;
      functions = 750;
    };
    {
      mobile_base with
      name = "Browser";
      activity = "Search and load pages";
      seed = 103;
      functions = 1400;
      dispatcher_slots = 64;
      call_prob = 0.28;
      call_locality = 0.45;
      chain_groups = (1, 1);
    };
    {
      mobile_base with
      name = "Facebook";
      activity = "RT-texting";
      seed = 104;
      functions = 1100;
      call_prob = 0.3;
      body_instrs = (34, 52);
      chain_groups = (1, 1);
    };
    {
      mobile_base with
      name = "Email";
      activity = "Send, receive mail";
      seed = 105;
      functions = 800;
      call_prob = 0.24;
    };
    {
      mobile_base with
      name = "Maps";
      activity = "Search directions";
      seed = 106;
      fanout = (6, 9);
      chain_groups = (1, 2);
      load_working_set = kb 64;
      functions = 950;
    };
    {
      mobile_base with
      name = "Music";
      activity = "2 minutes song";
      seed = 107;
      functions = 420;
      dispatcher_slots = 20;
      chain_groups = (0, 1);
      call_prob = 0.16;
      body_instrs = (36, 56);
    };
    {
      mobile_base with
      name = "Office";
      activity = "Slide edit, present";
      seed = 108;
      functions = 1000;
      chain_groups = (1, 2);
    };
    {
      mobile_base with
      name = "PhotoGallery";
      activity = "Browse images";
      seed = 109;
      load_working_set = kb 96;
      load_stride = 64;
      load_randomness = 0.15;
      functions = 700;
    };
    {
      mobile_base with
      name = "Youtube";
      activity = "HQ video stream";
      seed = 110;
      fanout = (6, 9);
      chain_groups = (1, 2);
      load_working_set = kb 48;
      functions = 850;
    };
  ]

(* ------------------------------------------------------------------ *)
(* SPEC members                                                        *)
(* ------------------------------------------------------------------ *)

let spec_int =
  [
    {
      spec_int_base with
      name = "bzip2";
      activity = "compression";
      seed = 201;
      load_stride = 8;
      load_working_set = mb 4;
    };
    {
      spec_int_base with
      name = "hmmer";
      activity = "gene sequencing";
      seed = 202;
      loop_iterations = 60;
      load_randomness = 0.1;
      load_stride = 16;
    };
    {
      spec_int_base with
      name = "libquantum";
      activity = "quantum simulation";
      seed = 203;
      load_stride = 64;
      load_randomness = 0.02;
      load_working_set = mb 24;
      isolated_fanout = (16, 28);
    };
    {
      spec_int_base with
      name = "mcf";
      activity = "vehicle scheduling";
      seed = 204;
      load_randomness = 0.6;
      load_working_set = mb 32;
      branch_bias = (0.35, 0.65);
    };
    {
      spec_int_base with
      name = "gcc";
      activity = "compiler";
      seed = 205;
      functions = 160;
      call_prob = 0.1;
      load_working_set = mb 6;
    };
    {
      spec_int_base with
      name = "gobmk";
      activity = "game of go";
      seed = 206;
      branch_bias = (0.4, 0.6);
      branch_prob = 0.55;
      loop_prob = 0.4;
    };
    {
      spec_int_base with
      name = "sjeng";
      activity = "chess";
      seed = 207;
      branch_bias = (0.42, 0.62);
      branch_prob = 0.5;
    };
    {
      spec_int_base with
      name = "h264ref";
      activity = "video encoding";
      seed = 208;
      mul_frac = 0.09;
      fp_frac = 0.05;
      load_stride = 32;
      load_randomness = 0.08;
    };
  ]

let spec_float =
  [
    {
      spec_float_base with
      name = "sperand";
      activity = "linear programming";
      seed = 301;
    };
    {
      spec_float_base with
      name = "namd";
      activity = "molecular dynamics";
      seed = 302;
      isolated_fanout = (16, 30);
      fp_frac = 0.5;
    };
    {
      spec_float_base with
      name = "gromacs";
      activity = "molecular dynamics";
      seed = 303;
      load_working_set = mb 8;
    };
    {
      spec_float_base with
      name = "calculix";
      activity = "structural mechanics";
      seed = 304;
      mul_frac = 0.04;
      div_frac = 0.02;
    };
    {
      spec_float_base with
      name = "lbm";
      activity = "fluid dynamics";
      seed = 305;
      load_working_set = mb 48;
      load_stride = 64;
      load_randomness = 0.02;
      isolated_groups = (2, 3);
    };
    {
      spec_float_base with
      name = "milc";
      activity = "lattice QCD";
      seed = 306;
      load_randomness = 0.3;
      load_working_set = mb 24;
    };
    {
      spec_float_base with
      name = "dealII";
      activity = "finite elements";
      seed = 307;
      branch_prob = 0.4;
      functions = 60;
      call_prob = 0.08;
    };
    {
      spec_float_base with
      name = "leslie3d";
      activity = "combustion";
      seed = 308;
      loop_iterations = 120;
      load_stride = 64;
    };
  ]

let all = mobile @ spec_int @ spec_float

let find name =
  let lower = String.lowercase_ascii name in
  List.find_opt
    (fun (p : Profile.t) -> String.lowercase_ascii p.name = lower)
    all

let table_ii () =
  let mobile_rows =
    List.map
      (fun (p : Profile.t) -> [ "Mobile"; p.name; p.activity ])
      mobile
  in
  let spec_row suite members =
    [ suite; String.concat ", " members; "" ]
  in
  Util.Text_table.render
    ~aligns:[ Util.Text_table.Left; Util.Text_table.Left; Util.Text_table.Left ]
    ~header:[ "Domain"; "App"; "Activities performed" ]
    (mobile_rows
    @ [
        spec_row "SPEC.int"
          (List.map (fun (p : Profile.t) -> p.name) spec_int);
        spec_row "SPEC.float"
          (List.map (fun (p : Profile.t) -> p.name) spec_float);
      ])
