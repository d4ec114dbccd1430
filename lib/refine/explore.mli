(** Focused exact classification refinement.

    After the must/may fixpoint, every reference left [Not_classified]
    gets a definitive verdict from the per-set product exploration
    ({!Product}); proven outcomes are fed back into the analysis and
    the WCET re-derived so the IPET ILP drops the reclaimed miss
    terms. *)

exception Unsound of string
(** Raised (in {!Mode.Full} only) when the exploration contradicts an
    abstract [Always_hit]/[Always_miss] — the abstract analysis itself
    is unsound for this case. *)

type summary = {
  s_mode : Mode.t;
  s_nc_before : int;  (** Not_classified slots before refinement *)
  s_nc_after : int;  (** Not_classified slots remaining *)
  s_ah_gained : int;  (** slots newly proven Always_hit *)
  s_am_gained : int;  (** slots newly proven Always_miss *)
  s_tau : int;  (** refined [Wcet.tau_with_residual] *)
  s_miss_bound : int;  (** refined [Analysis.miss_count_bound] *)
  s_quant : int option;
      (** quantitative competitiveness miss bound
          ({!Quantitative.miss_bound}), when the policy has one *)
  s_states : int;  (** product pairs explored, summed over sets *)
  s_budget_hit : bool;
      (** at least one set's exploration hit the state budget and was
          discarded *)
  s_budget_exhausted : int;
      (** [Not_classified] focus references left unrefined because
          their set's exploration exhausted the budget — distinguishes
          "sound but imprecise" geometries (large counts, no finding)
          from genuinely suspicious ones in fuzz and sweep records *)
  s_digest : string;
      (** MD5 over mode, policy, every reclassification and the derived
          bounds — the audit recomputes the exploration and compares *)
}

val run :
  ?deadline:Ucp_util.Deadline.t ->
  ?budget:int ->
  ?corrupt:bool ->
  mode:Mode.t ->
  Ucp_wcet.Wcet.t ->
  (summary * Ucp_wcet.Wcet.t) option
(** Refine a computed WCET.  [None] for {!Mode.Off} or a non-plain
    analysis (pinned ways: the product would model the wrong concrete
    semantics).  The returned [Wcet.t] is re-derived from the refined
    classifications; the caller's original is untouched.  [?budget] caps product pairs per cache set
    ({!Product.default_budget}); exhaustion leaves the whole set's
    references as the abstraction classified them, deterministically.  [?corrupt] injects the
    [corrupt-refine] fault: the first focus reference not proven
    always-hit is claimed [Always_hit] anyway — the audit's digest
    recomputation must catch the lie.
    @raise Unsound on a {!Mode.Full} cross-check contradiction.
    @raise Ucp_util.Deadline.Deadline_exceeded if [?deadline] passes. *)
