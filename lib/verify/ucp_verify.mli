(** Trust-but-verify: an independent certification layer for the
    pipeline's three engines.

    Everything else in the repository {e produces} results — the
    exact-rational simplex/ILP, the abstract-interpretation WCET
    analysis and the reverse-sweep optimizer.  This module {e checks}
    them, re-deriving each claim from first principles without reusing
    the producer's arithmetic:

    - {b LP/ILP certificates}: a {!Ucp_lp.Simplex} answer carries its
      dual solution; {!certify_lp} verifies primal feasibility, dual
      sign conditions, dual feasibility and strong duality in exact
      rationals (no tolerances, no pivots — see
      {!Ucp_lp.Simplex.check_certificate}).  {!certify_ilp} checks
      integral answers for feasibility and objective equality.
    - {b IPET certification}: {!certify_ipet} cross-checks the DAG
      longest-path τ{_w} against an independently-coded longest-path DP
      over re-derived per-node costs, then verifies the combinatorial
      flow certificate {!Ucp_wcet.Wcet.flow_certificate} (per-node
      suffix bounds + per-loop lap charges — morally the flow LP's
      dual) by linear passes over the expanded graph's edges.  No
      solver runs on this fast path; any shortfall falls back to the
      historical root-LP solve with direct dual-certificate checking
      and, on an integrality gap, the exact branch & bound.  The
      [audit_ipet_fastpath_total] / [audit_ipet_slowpath_total]
      metrics count the two routes.
    - {b WCET witness replay}: {!replay_witness} checks the WCET path
      is a genuine CFG execution, re-derives τ{_w} from the
      classifications, then forces the concrete simulator down the
      witness (via [~branch_oracle]) and checks every Always-Hit /
      Always-Miss classification against the concrete cache state
      (per replacement policy, via [~on_fetch]), the replayed cost
      against the bound, and prefetch stalls against the residual
      charge (the d ≥ Λ effectiveness obligation).
    - {b optimizer audit}: {!audit_trail} re-derives the endpoints of
      {!Ucp_prefetch.Optimizer.result.trail} from independent analyses
      and checks Theorem 1, the per-round acceptance conditions
      (Eq. 5–9), gain positivity, materialization and
      prefetch-equivalence.

    All checkers return [Error msg] where [msg] names the violated
    obligation first (e.g. ["lp-strong-duality: ..."]); the sweep
    demotes such records to [Invariant_violation]. *)

type mode = Off | Sample of int | Full
(** How much of a sweep to audit: nothing, a deterministic 1-in-N
    selection keyed by case id, or every case. *)

val mode_of_string : string -> (mode, string) result
(** Parse ["off" | "sample:N" | "full"] (as the [--audit] flag). *)

val mode_to_string : mode -> string

val selects : mode -> string -> bool
(** [selects mode case_id]: audit this case?  Deterministic in
    [case_id], so resumed or re-run sweeps audit the same cases. *)

val certify_lp :
  ?minimize:bool ->
  Ucp_lp.Simplex.problem ->
  Ucp_lp.Simplex.solution ->
  (unit, string) result
(** Verify an LP answer against its problem: primal feasibility
    (x ≥ 0, every row), dual sign conditions (y{_i} ≥ 0 for [Le] rows,
    ≤ 0 for [Ge], free for [Eq]), dual feasibility (Aᵀy ≥ c) and
    strong duality (cᵀx = value = bᵀy) — all in exact rationals.
    [~minimize] checks the mirrored conditions {!Ucp_lp.Simplex.minimize}
    produces. *)

val certify_ilp :
  Ucp_lp.Simplex.problem ->
  value:Ucp_lp.Rational.t ->
  assignment:int array ->
  (unit, string) result
(** Verify an integral answer: nonnegativity, every constraint row, and
    objective equality. *)

val certify_ipet :
  ?deadline:Ucp_util.Deadline.t -> Ucp_wcet.Wcet.t -> (unit, string) result
(** Certify the DAG longest-path τ{_w} against the IPET flow model:
    flow-certificate fast path (linear checks, no solver), LP/ILP
    fallback (see module doc).  [?deadline] only guards the fallback —
    the fast path is linear. *)

val replay_witness :
  ?seed:int -> Ucp_wcet.Wcet.t -> (unit, string) result
(** Structurally validate the WCET witness path, re-derive τ{_w} from
    the classifications, then replay the witness on the concrete
    simulator under the analysis' replacement policy and check the
    classifications, the cost bound and the prefetch-effectiveness
    residual.  Only supports plain analyses (no [~pinned]/[~locked]
    modes); {!audit_case} returns an
    explicit {!Skipped} verdict for non-plain analyses instead of a
    silent pass. *)

val audit_trail :
  original:Ucp_wcet.Wcet.t ->
  optimized:Ucp_wcet.Wcet.t ->
  Ucp_prefetch.Optimizer.result ->
  (unit, string) result
(** Re-derive the optimizer's proof obligations from the two
    independent analyses: endpoint equality, Theorem 1
    (τ after ≤ τ before), the chained per-round Eq. 5–9 acceptance
    conditions, positive admitted gains (mcost − pcost > 0),
    materialization of every recorded prefetch and
    prefetch-equivalence.  [original]/[optimized] must analyze
    [result.original]/[result.program] under the sweep's policy and
    configuration; the first check ([optimizer-program]) is that each
    analysis is of that program, physically or structurally equal, so
    the original's analysis cannot stand in for a changed program. *)

type verdict =
  | Certified of {
      checks : int;
          (** top-level certificates that passed (5, or 7 when the
              refine obligations ran) *)
      seconds : float;
          (** audit cost: the sum of the per-obligation intervals that
              also feed the [audit_seconds_total] metrics fcounter *)
    }
  | Skipped of { reason : string }
      (** the case could not be audited (non-plain analysis: pinned /
          locked ways) — surfaced explicitly
          so such records cannot claim a clean audit they never had *)

val audit_case :
  ?deadline:Ucp_util.Deadline.t ->
  ?seed:int ->
  ?corrupt:bool ->
  ?refine:
    Ucp_refine.Mode.t
    * Ucp_refine.Explore.summary option
    * Ucp_refine.Explore.summary option ->
  original:Ucp_wcet.Wcet.t ->
  optimized:Ucp_wcet.Wcet.t ->
  Ucp_prefetch.Optimizer.result ->
  (verdict, string) result
(** Run the full per-case audit: IPET certification of both analyses,
    witness replay of both, and the optimizer audit trail.  [~corrupt]
    is the [corrupt-cert] fault-injection hook: it perturbs one
    certificate field (the claimed optimized τ) before checking, so a
    correct checker must fail with the violated obligation named.

    [?refine] is the case's refine mode plus the measured refinement
    summaries of the two sides.  A mode other than [Off] adds two
    obligations ([refine-original], [refine-optimized]): the exact
    exploration is recomputed from the audited side's own analysis and
    its digest — covering every reclassification and the refined
    bounds — must match the recorded one byte-for-byte (this is what
    catches the [corrupt-refine] fault), and the recomputed refined
    WCET goes through the same concrete witness replay as the
    unrefined analyses.

    When [original == optimized] and the two summaries are equal — the
    pipeline's program the optimizer left unchanged — each per-side
    check (IPET certificate, witness replay, refine re-run) runs once,
    on the original side, and its verdict stands for both named
    obligations: a certified record still counts every check. *)
