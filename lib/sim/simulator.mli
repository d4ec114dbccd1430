(** Trace-driven execution: the repository's GEM5 substitute.

    Walks the CFG concretely, driving branch decisions from each
    conditional's {!Ucp_isa.Branch_model.t}, and models the timed memory
    system: a set-associative instruction cache under any
    {!Ucp_policy} replacement policy (LRU, FIFO or tree-PLRU), a
    constant-latency DRAM, and a non-blocking prefetch port.  A demand
    fetch of a block whose prefetch is still in flight stalls only for
    the remaining latency.

    Produces the event counts the energy model consumes and the ACET in
    cycles.  Runs are deterministic for a given seed.

    The slot loop reads each slot's memory block and prefetch target
    from the program's {!Ucp_isa.Layout} slot table, and makes one
    cache access per demand fetch and per prefetch. *)

exception Step_limit_exceeded of { program : string; limit : int }
(** {!run} executed more than [limit] instructions of the program
    named [program]: its branch models diverge. *)

type stats = {
  counts : Ucp_energy.Account.counts;
  executed : int;  (** dynamically executed instructions (Figure 8) *)
  executed_prefetches : int;  (** executed software-prefetch instructions *)
  hw_issued : int;  (** prefetches issued by a hardware scheme *)
  late_prefetch_stall_cycles : int;
      (** cycles stalled on blocks whose prefetch had not completed *)
  miss_rate : float;  (** demand misses / fetches *)
}

val run :
  ?seed:int ->
  ?max_steps:int ->
  ?policy:Ucp_cache.Concrete.policy ->
  ?hw:Hw_prefetch.t ->
  ?locked:int list ->
  ?pinned:int list ->
  ?cache_config:Ucp_cache.Config.t ->
  ?on_fetch:(block:int -> pos:int -> hit:bool -> unit) ->
  ?branch_oracle:(int -> bool) ->
  Ucp_isa.Program.t ->
  Ucp_cache.Config.t ->
  Ucp_energy.Cacti.t ->
  stats
(** Execute the program to its [Return].  [~policy] selects the
    concrete replacement policy (default LRU); the abstract analyses
    are policy-parametric too ({!Ucp_wcet.Analysis.run}), so pass the
    same policy on both sides when cross-validating.  [~on_fetch] is
    invoked at every demand fetch with the static slot coordinates
    [(block, pos)] (the terminator sits at [pos = body length]) and the
    hit/miss verdict — the hook the per-policy soundness
    cross-validation test uses to compare the simulator against the
    abstract classification.  [~branch_oracle], when given, overrides
    every conditional's branch model: [oracle block] decides whether
    the conditional ending [block] is taken at this dynamic instance —
    the hook witness replay ({!Ucp_verify}) uses to force the
    simulator down the abstract WCET path.  [~locked]
    switches the cache into fully-locked mode: the given memory blocks
    always hit, everything else always misses, no allocation happens,
    and prefetch instructions have no memory effect (the cache-locking
    baseline).  [~pinned] instead locks only {e part} of the cache: the
    given blocks always hit while the rest of the program runs through
    a normal cache of geometry [~cache_config] (the unlocked ways) —
    the hybrid locking+prefetching mode [16, 2].  Without [~hw] no
    hardware prefetcher runs, as with {!Hw_prefetch.none}, and no
    fetch is described to one.
    @raise Step_limit_exceeded if [max_steps] (default 3,000,000)
    instructions are exceeded — a diverging branch model.
    @raise Ucp_isa.Layout.Dangling_prefetch_target if a prefetch
    targets a uid absent from the program. *)

val acet : stats -> int
(** Memory contribution to the average-case execution time, cycles. *)
