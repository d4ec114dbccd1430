(** WCET computation: timing of classified references and the longest
    path over the VIVU-expanded DAG (the WCET scenario of Section 3.3).

    The longest path plays the role of the IPET ILP solution: on the
    expanded acyclic graph with per-node execution multiplicities the
    two coincide (property-tested against {!Ipet}).  It yields the
    per-node WCET-scenario execution counts [n_w] and the memory
    system's total contribution τ{_w} (Equation 3). *)

type t = {
  analysis : Analysis.t;
  model : Ucp_energy.Cacti.t;
  node_cycles : int array;  (** per node: {!cycles_of} summed over its slots *)
  n_w : int array;  (** per node: executions in the WCET scenario *)
  on_path : bool array;
  path : int array;  (** WCET path as expanded node ids, entry first *)
  tau : int;  (** τ_w: total memory contribution to the WCET, cycles *)
}

val cycles_of : Ucp_energy.Cacti.t -> Classification.t -> int
(** [t_w(r)]: one execution's memory time in the WCET scenario of a
    reference so classified — hit time, plus penalty if a WCET miss. *)

val compute :
  ?deadline:Ucp_util.Deadline.t ->
  ?with_may:bool ->
  ?pinned:(int -> bool) ->
  ?policy:Ucp_policy.id ->
  Ucp_isa.Program.t ->
  Ucp_cache.Config.t ->
  Ucp_energy.Cacti.t ->
  t
(** Full pipeline: layout, VIVU expansion, abstract interpretation,
    timing, longest path.  [~deadline], [~with_may], [~pinned] and
    [~policy] (replacement policy, default LRU) are forwarded to
    {!Analysis.run}.
    @raise Ucp_isa.Layout.Dangling_prefetch_target if a prefetch
    targets a uid absent from the program. *)

val analyze :
  ?deadline:Ucp_util.Deadline.t ->
  ?with_may:bool ->
  ?pinned:(int -> bool) ->
  ?policy:Ucp_policy.id ->
  Ucp_isa.Program.t ->
  Ucp_cache.Config.t ->
  Analysis.t
(** Layout, VIVU expansion and abstract interpretation only — the
    model-independent front half of {!compute}.  The result can be
    shared across technology nodes (it does not depend on the Cacti
    model) and finished per tech with {!of_analysis}. *)

val of_analysis : Analysis.t -> Ucp_energy.Cacti.t -> t
(** Timing + path on an existing analysis. *)

val longest_path : Ucp_cfg.Vivu.t -> node_cycles:int array -> int * int array
(** [(tau, path)] of the weighted longest path, where each node costs
    [node_cycles.(id) * mult id].  Exposed for alternative timing
    classifiers (e.g. locked caches). *)

val path_refs : t -> (int * int) array
(** All references along the WCET path as [(node, pos)], in execution
    order. *)

val wcet_misses : t -> int
(** Number of WCET-charged misses along the path, weighted by [n_w]. *)

val residual_prefetch_stall : t -> int
(** Conservative extra WCET cycles charged when prefetches are not
    provably effective.  Every execution of every prefetch instance is
    charged [max 0 (lambda - d)], where [d] is the minimum number of
    instruction slots between the prefetch and the first later access
    of its target block over {e all} walks of the expanded graph —
    following DAG {e and} iteration (wrap-around) edges, since inside a
    loop the first later use can sit across the back edge (each slot
    costs at least one cycle on any execution).  Near zero for
    programs optimized by the paper's criterion (Definition 10
    guarantees effectiveness in the WCET scenario); large for naive
    baselines such as the basic-block-start inserter of [5].  Each
    instance's [d] comes from a search over expanded nodes, scanning a
    node's slots in the layout's slot table; only distances below
    [lambda] are explored. *)

val tau_with_residual : t -> int
(** [tau t + residual_prefetch_stall t] — the sound bound for programs
    with unchecked prefetches. *)

(** {2 Combinatorial flow certificate (the audit fast path)} *)

type flow_cert = {
  fc_x : int array;
      (** per node: X_v, an upper bound on the node-cycle cost of any
          walk suffix starting at (and including) v *)
  fc_lam : int array;
      (** per node: Lam_h, the prepaid per-lap charge of a rest header
          (0 for every other node) *)
}
(** Witness that [tau] bounds every walk of the VIVU execution model.
    Valid iff, with [c_v] the per-node cycles and
    [entry_charge v = (k_v - 1) * Lam_v] at rest headers of per-entry
    budget [k_v = bound - 1]:
    [Lam_h >= 0]; [X_u >= c_u + X_v + entry_charge v] on DAG edges
    (waived into [k_v = 0] headers, which cannot be entered);
    [X_u >= c_u + X_h - Lam_h] on iteration edges; [X_v >= c_v]
    everywhere; and [X_entry = tau].  {!Ucp_verify.certify_ipet} checks
    these conditions with independently re-derived costs in linear
    passes — no simplex or branch-and-bound. *)

val rest_budget : Ucp_cfg.Vivu.t -> int option array
(** [Some (bound - 1)] per rest-header node (its per-entry execution
    budget in the flow model), [None] elsewhere. *)

val flow_certificate : t -> flow_cert option
(** Construct a certificate by a per-loop lap-chain DP (Lam) followed by
    monotone Bellman sweeps (X).  Untrusted: the audit re-checks the
    conditions from scratch.  [None] if the sweeps fail to converge
    within the pass cap (the audit then falls back to the LP/ILP). *)
