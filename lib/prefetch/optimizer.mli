(** The paper's contribution: WCET-safe, energy-oriented software
    prefetch insertion for unlocked instruction caches (Section 4,
    Algorithms 1–3 of Supplement S.1).

    Pipeline per accepted prefetch:

    + run cache-aware WCET analysis and extract the WCET path;
    + propagate cache states {e along the WCET path} (the path-focused
      join J{_SE} of Algorithm 2 reduces joins at confluences to "take
      the WCET-path predecessor", so the walk is a chain);
    + sweep the path in {e reverse} execution order; at each reference,
      Property 3 exposes the memory blocks the access replaces;
    + for each victim whose next path reference misses, evaluate the
      joint improvement criterion (Equation 9): the prefetch must be
      {e effective} (Λ fits in the WCET time between insertion point and
      use, Definition 10) and its gain [mcost - pcost] must be positive;
    + materialize the prefetch (end-anchored relocation, so only
      addresses before the insertion point shift), re-run the full
      analysis, and {e accept} only if τ{_w} did not increase and the
      analysis' miss bound decreased — the constructive enforcement of
      Theorem 1 and Condition 2; otherwise roll back and ban the
      candidate.

    Iterates until no candidate is accepted (iterative improvement,
    Section 4's premise for ACET/energy correlation). *)

type insertion = {
  target_uid : int;  (** instruction whose block the prefetch loads *)
  prefetch_uid : int;  (** uid of the materialized prefetch *)
  tau_before : int;
  tau_after : int;
  misses_before : int;  (** analysis miss bound before *)
  misses_after : int;
  est_gain : int;  (** mcost - pcost estimate that admitted it *)
}

type round = {
  round_insertions : (int * int) list;
      (** materialized [(prefetch_uid, target_uid)] pairs of the round *)
  round_tau_before : int;  (** τ_w + residual claimed before the round *)
  round_tau_after : int;
  round_misses_before : int;  (** analysis miss bound claimed before *)
  round_misses_after : int;
}
(** Proof obligations of one {e accepted} batch: the acceptance test
    (Equations 5–9 / Theorem 1) claims
    [round_tau_after <= round_tau_before] and
    ([round_misses_after < round_misses_before] or
    [round_tau_after < round_tau_before]).  {!Ucp_verify.audit_trail}
    re-derives the endpoints from independent analyses and checks the
    chain without trusting the optimizer's arithmetic. *)

type result = {
  program : Ucp_isa.Program.t;  (** the optimized, prefetch-equivalent program *)
  original : Ucp_isa.Program.t;
  insertions : insertion list;  (** in acceptance order *)
  rejected : int;  (** candidates rolled back by the safety net *)
  rejected_tau : int;  (** rollbacks where τ_w would have grown *)
  rejected_miss : int;  (** rollbacks where the miss bound did not shrink *)
  rounds : int;  (** analysis recomputations *)
  tau_before : int;
  tau_after : int;
  trail : round list;  (** audit trail, one entry per accepted round *)
}

type placement =
  | At_eviction
      (** the paper's discipline: the prefetch lands immediately after
          the reference that replaced the block (program point
          (r{_i}, r{_i+1}) of Algorithm 1) *)
  | Latest_effective
      (** extension (ablation): the latest point that still hides Λ,
          preferring blocks that dominate the use — an aggressive
          streaming placement that converts far more misses at a much
          higher instruction overhead *)

val optimize :
  ?deadline:Ucp_util.Deadline.t ->
  ?placement:placement ->
  ?max_insertions:int ->
  ?overhead_budget:float ->
  ?pinned:(int -> bool) ->
  ?initial:Ucp_wcet.Wcet.t ->
  ?policy:Ucp_policy.id ->
  Ucp_isa.Program.t ->
  Ucp_cache.Config.t ->
  Ucp_energy.Cacti.t ->
  result
(** Run the optimization to its fixpoint (or until [max_insertions] or
    the overhead budget is exhausted).  [~deadline] bounds the wall
    clock: it is checked before every verification analysis and inside
    each analysis fixpoint, raising
    [Ucp_util.Deadline.Deadline_exceeded] once passed.  [~policy]
    selects the replacement policy (default LRU): the Property-3 victim
    detection asks that policy's must domain who can be evicted, and
    every verification analysis runs its domains, so Theorem 1 holds
    per policy.  [~initial] supplies the
    already-computed analysis of [program] under the same [?pinned],
    configuration and model — a result of
    [Wcet.compute ?pinned ?policy program config model] (with or
    without the may analysis) — so a
    caller that has measured the original program does not pay for that
    fixpoint twice; its policy then overrides [?policy], and its VIVU
    graph serves every round; passing anything else is unspecified.
    [~pinned] marks blocks held in
    locked ways (see {!Ucp_wcet.Analysis.run}); pass the configuration
    of the unlocked ways — this is the hybrid mode used by
    {!Baselines.lock_hybrid}.  [overhead_budget] (default
    0.05) bounds the dynamic instruction overhead: accepted prefetches
    may add at most that share of the WCET scenario's executed
    instructions; candidates are ranked by their Equation-9 gain so the
    budget keeps the most profitable ones (the paper reports a 1.32%
    maximum average increase, Figure 8).  The result's program
    satisfies [Program.prefetch_equivalent original program] and
    [tau_after <= tau_before]. *)

type candidate = {
  cand_insert_node : int;  (** expanded node of the insertion point *)
  cand_insert_block : int;  (** concrete block receiving the prefetch *)
  cand_insert_pos : int;  (** body position of the insertion *)
  cand_before_uid : int;  (** uid of the reference the prefetch precedes *)
  cand_target_uid : int;
  cand_target_block : int;  (** S(r_j) at discovery time *)
  cand_use_position : int;  (** index of r_j in the path reference array *)
  cand_gain : int;  (** mcost - pcost (WCET-scenario cycles) *)
  cand_cost : int;  (** WCET-scenario executions of the inserted slot *)
}

val discover : ?placement:placement -> Ucp_wcet.Wcet.t -> candidate list
(** The reverse-sweep candidate discovery alone (effectiveness and
    profitability already filtered), latest candidates first — exposed
    for tests and the worked examples of Figures 1 and 2. *)
