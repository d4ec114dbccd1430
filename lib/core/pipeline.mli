(** The public façade: one-call access to the paper's tool flow.

    A {e use case} is a triple (program, cache configuration, process
    technology), as in Supplement S.4.  [measure] evaluates a program
    under a use case — WCET analysis for τ{_w}, trace simulation for
    ACET/miss rate, the mini-CACTI model for energy — and [optimize]
    derives the prefetch-optimized, prefetch-equivalent binary. *)

type measurement = {
  tau : int;  (** memory contribution to the WCET, cycles *)
  acet : int;  (** memory contribution to the ACET, cycles *)
  energy_pj : float;  (** memory-system energy of the simulated run *)
  miss_rate : float;  (** demand miss rate of the simulated run *)
  executed : int;  (** dynamically executed instructions *)
  demand_misses : int;  (** demand misses of the simulated run *)
  wcet_miss_bound : int;  (** the analysis' bound on demand misses *)
  ah : int;  (** instruction slots classified always-hit *)
  am : int;  (** instruction slots classified always-miss *)
  nc : int;
      (** instruction slots left unclassified — with [ah] and [am] the
          per-policy classification-precision counters of the sweep
          (unweighted static slots of the expanded graph) *)
  refine : Ucp_refine.Explore.summary option;
      (** exact-refinement results when [?refine] was not [Off] and the
          analysis was plain.  Strictly additive: [tau],
          [wcet_miss_bound] and the classification counters above are
          always the {e unrefined} figures, so refined and unrefined
          record streams stay field-for-field comparable and the
          optimizer's audited endpoints are untouched — the tightened
          bounds live in the summary ([s_tau], [s_miss_bound], ...). *)
}

val stage : string -> (unit -> 'a) -> 'a
(** [stage name f] runs one stage of the tool flow ([analysis],
    [refine], [optimize] or [simulate]) inside a trace span [name].
    While {!Ucp_obs.Metrics} is enabled it also adds the stage's
    wall-clock time, whether [f] returns or raises, to the fcounter
    [<name>_seconds_total]; concurrent stages each count their own
    elapsed time.  Disabled, it costs one atomic load beyond the
    span. *)

val model :
  Ucp_cache.Config.t -> Ucp_energy.Tech.t -> Ucp_energy.Cacti.t
(** The timing/energy model of a use case.  Pure and deterministic, so
    the sweep computes it once per (configuration, technology) pair and
    passes it back in through [?model] below. *)

val measure :
  ?deadline:Ucp_util.Deadline.t ->
  ?seed:int ->
  ?model:Ucp_energy.Cacti.t ->
  ?wcet:Ucp_wcet.Wcet.t ->
  ?policy:Ucp_policy.id ->
  ?refine:Ucp_refine.Mode.t ->
  ?corrupt_refine:bool ->
  Ucp_isa.Program.t ->
  Ucp_cache.Config.t ->
  Ucp_energy.Tech.t ->
  measurement
(** Analyze and simulate one program under one use case.  [?policy]
    selects the replacement policy on both sides — the abstract
    domains of the analysis and the concrete cache of the simulator
    (default LRU).  [?model]
    reuses a precomputed {!model} (it must equal [model config tech]);
    [?wcet] reuses a precomputed analysis of the {e same} program under
    the same configuration, model and policy, skipping the analysis
    stage;
    [?refine] (default [Off]) runs the focused exact classification
    refinement after the fixpoint and attaches its summary to the
    measurement; [?corrupt_refine] injects the [corrupt-refine] fault
    into that stage.  Each stage runs under {!stage}.  [?deadline]
    bounds the analysis stage (the trace simulation does not check it —
    its step count is already bounded by [Simulator.run]'s
    [max_steps]). *)

val optimize :
  ?model:Ucp_energy.Cacti.t ->
  ?policy:Ucp_policy.id ->
  Ucp_isa.Program.t ->
  Ucp_cache.Config.t ->
  Ucp_energy.Tech.t ->
  Ucp_prefetch.Optimizer.result
(** The paper's optimization for this use case. *)

(** Was this use case audited by the {!Ucp_verify} certification layer,
    and at what cost?  A {e failed} audit never produces a value — it
    raises {!Outcome.Invariant} instead (see [compare_optimized]).
    [Audit_skipped] is an audit that could not run (non-plain analysis:
    pinned/locked ways) — surfaced explicitly so such records cannot
    claim a certification they never had. *)
type audit =
  | Not_audited
  | Audited of { checks : int; seconds : float }
  | Audit_skipped of string

type comparison = {
  original : measurement;
  optimized : measurement;
  prefetches : int;  (** accepted prefetch insertions *)
  rejected : int;  (** candidates rolled back by the safety net *)
  audit : audit;  (** certification verdict for this case *)
}

val compare_optimized :
  ?deadline:Ucp_util.Deadline.t ->
  ?seed:int ->
  ?model:Ucp_energy.Cacti.t ->
  ?policy:Ucp_policy.id ->
  ?analysis0:Ucp_wcet.Analysis.t ->
  ?audit:bool ->
  ?corrupt_cert:bool ->
  ?refine:Ucp_refine.Mode.t ->
  ?corrupt_refine:bool ->
  Ucp_isa.Program.t ->
  Ucp_cache.Config.t ->
  Ucp_energy.Tech.t ->
  comparison
(** Optimize and evaluate both versions under the same use case, under
    the replacement policy [?policy] (default LRU), then certify the
    result when [~audit:true].  [?refine] (default [Off]) additionally
    runs the exact classification refinement on both sides and, when
    the case is audited, adds the two refine obligations
    (digest-checked recomputation plus refined witness replay) to the
    audit.  [?corrupt_refine] injects the [corrupt-refine] fault on the
    original side.  Theorem 1 materializes as
    [optimized.tau <= original.tau].  [?deadline] is threaded into
    every analysis fixpoint and optimizer round, and into the audit;
    once it passes, the pending stage raises
    [Ucp_util.Deadline.Deadline_exceeded] at its next check.

    The original program is analyzed exactly once: the optimizer starts
    from that fixpoint and the original measurement reuses it.
    [?analysis0] skips even that by reusing a memoized cache-aware
    analysis of the {e original} program (same program, configuration
    and policy, may analysis on) — the abstract interpretation never
    reads the timing model, so the sweep shares one analysis across
    the technology axis.

    When the optimizer hands back the very program it was given (it
    accepted no insertion), the original side is measured once and
    stands for both: [optimized == original], and the audit receives
    one [Wcet.t] for both sides, which {!Ucp_verify.audit_case}
    certifies once.  An armed fault does not change this: the audit
    still catches [corrupt_refine] at [refine-original] and
    [corrupt_cert] at [optimizer-tau-after].  The shared artifacts
    equal what a second analysis, refinement and simulation would
    give: each is a deterministic function of the same program, model
    and seed.

    [~audit:true] runs the full {!Ucp_verify.audit_case} certification
    (IPET certificates via the flow-certificate fast path, witness
    replay of both programs, optimizer audit trail) on the case's own
    analyses, inside an [audit] trace span; its time reaches the
    metrics registry as {!Ucp_verify}'s [audit_seconds_total], not
    through {!stage}, so it is counted once.  A failed obligation
    raises [Outcome.Invariant ("audit: " ^ msg)], which the sweep
    demotes to a structured [Invariant_violation].  A case the audit
    cannot replay (non-plain analysis) yields [Audit_skipped].
    [~corrupt_cert:true] is the [corrupt-cert] fault-injection hook: it
    perturbs one certificate field before checking, so the audit must
    fail. *)
