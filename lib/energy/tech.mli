(** Process-technology parameters (the paper targets 45 nm and 32 nm).

    The scaling captures the qualitative CMOS trends the paper's
    argument rests on: newer nodes have cheaper dynamic switching but
    markedly higher leakage, and a faster clock widens the cycle gap to
    DRAM.  Absolute values are synthetic; all experiments report ratios
    (see DESIGN.md, substitutions). *)

type node = Nm45 | Nm32

type t = {
  node : node;
  label : string;  (** ["45nm"] or ["32nm"] *)
  cycle_ns : float;  (** processor cycle time *)
  dram_latency_cycles : int;
      (** level-two (DRAM) access latency in cycles — this is both the
          cache miss penalty and the prefetch latency Λ (Definition 4) *)
  dyn_scale : float;  (** multiplier on cache dynamic energy *)
  leak_scale : float;  (** multiplier on cache leakage power *)
}

val nm45 : t
val nm32 : t

val all : t list
(** Both technologies, 45 nm first. *)

val pp : Format.formatter -> t -> unit
