type node = Nm45 | Nm32

type t = {
  node : node;
  label : string;
  cycle_ns : float;
  dram_latency_cycles : int;
  dyn_scale : float;
  leak_scale : float;
}

let nm45 =
  {
    node = Nm45;
    label = "45nm";
    cycle_ns = 1.0;
    dram_latency_cycles = 24;
    dyn_scale = 1.0;
    leak_scale = 1.0;
  }

let nm32 =
  {
    node = Nm32;
    label = "32nm";
    cycle_ns = 0.8;
    dram_latency_cycles = 30;
    dyn_scale = 0.72;
    leak_scale = 1.85;
  }

let all = [ nm45; nm32 ]

let pp ppf t = Format.pp_print_string ppf t.label
