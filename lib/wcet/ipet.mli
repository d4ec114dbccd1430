(** Implicit Path Enumeration Technique [11] on the expanded graph.

    Encodes flow conservation over the VIVU-expanded nodes (iteration
    edges included) with loop-bound constraints, and maximizes
    Σ t(v)·n(v) with the exact-rational ILP solver.  On the expanded
    acyclic graph this coincides with the longest-path computation of
    {!Wcet}; the agreement is property-tested and the ILP route is kept
    as the reference implementation (and for irregular flow constraints
    a downstream user might add). *)

type result = {
  tau : int;  (** optimal objective: τ_w in cycles *)
  counts : int array;  (** per expanded node: n_w in the ILP optimum *)
}

exception Unsolvable_flow_model of { solver : string; unbounded : bool }
(** [Ipet.solver] ({!solve} or {!solve_cfg}) built a flow model with
    no optimum: the ILP is unbounded ([unbounded]) or infeasible.  Its
    printer reads e.g. [Ipet.solve: infeasible flow model]. *)

val build : Wcet.t -> Ucp_lp.Simplex.problem * int
(** The raw IPET flow problem over the expanded graph, plus the number
    of node variables [n] (variables [0..n-1] are per-node counts; edge,
    entry and exit flows follow).  Exposed so an independent checker
    ({!Ucp_verify}) can certify solver answers against the model. *)

val solve : ?deadline:Ucp_util.Deadline.t -> Wcet.t -> result
(** Build and solve the IPET ILP for the analyzed program.
    @raise Ucp_lp.Ilp.Node_budget_exhausted if the solver exhausts its
    branch-and-bound node budget (malformed model).
    @raise Unsolvable_flow_model if the model has no optimum. *)

val agrees_with_longest_path : Wcet.t -> bool
(** [true] iff the ILP optimum equals the longest-path τ_w. *)

val solve_cfg : ?deadline:Ucp_util.Deadline.t -> Wcet.t -> result
(** The textbook IPET variant on the {e original cyclic CFG} [11]:
    one count per basic block, flow conservation, and per-loop bound
    constraints (back-edge flow ≤ (bound−1) × entry flow).  Block times
    are context-insensitive (the worst over the block's VIVU
    instances), so the optimum is an upper bound of the
    context-sensitive τ_w — the property tests check
    [solve_cfg.tau >= Wcet.tau].  [counts] is indexed by basic block.
    @raise Unsolvable_flow_model if the model has no optimum. *)
