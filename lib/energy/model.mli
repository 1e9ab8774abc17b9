(** Event-based energy model of the mobile SoC.

    Energy is accumulated from the simulator's event counts: committed
    instructions and active cycles on the CPU side, per-access energies
    for each cache level and DRAM, plus a rest-of-SoC draw (display,
    radios, ASIC blocks) charged per unit of app work, so CPU
    optimizations do not reduce it.  The per-event energies are fixed
    inside this module, calibrated so the baseline SoC breakdown
    matches the shares reported for Nexus-7-class tablets (CPU ≈ 30 %,
    memory ≈ 15 %, the rest dominated by the display and peripherals),
    which is the weighting behind the paper's Fig. 10c roll-up of a 15 %
    CPU saving into a 4.6 % system-wide saving. *)

type breakdown = {
  cpu : float;        (** core dynamic + static, nJ *)
  icache : float;
  dcache : float;
  l2 : float;
  dram : float;
  rest : float;
  total : float;
}

val of_stats : Pipeline.Stats.t -> breakdown
(** The run's energy per component, from its event counts. *)

type saving = {
  cpu_contrib : float;     (** component's contribution to the
                               system-wide saving, as a fraction of the
                               baseline total *)
  icache_contrib : float;
  memory_contrib : float;  (** d-cache + L2 + DRAM *)
  rest_contrib : float;
  system : float;          (** total system-wide energy saving *)
  cpu_only : float;        (** CPU-energy saving relative to baseline
                               CPU energy (the paper's "15 % in the
                               CPU") *)
}

val saving : base:breakdown -> optimized:breakdown -> saving
