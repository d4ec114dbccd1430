(** Cache-aware abstract interpretation over the VIVU-expanded graph.

    Runs the must and may analyses to a sound fixpoint (iteration edges
    of rest contexts included) and classifies every instruction slot of
    every expanded node.  Prefetch instructions apply the
    prefetch-extended abstract semantics: their own fetch is classified
    like any reference, and the targeted memory block is then installed
    by the same classify-and-update step as a demand access of it, its
    classification dropped (DESIGN.md §23). *)

exception Fixpoint_diverged of { program : string; cap : int }
(** {!run} made [cap] passes over the expanded graph of the program
    named [program] without reaching a fixpoint. *)

type t

val run :
  ?deadline:Ucp_util.Deadline.t ->
  ?with_may:bool ->
  ?pinned:(int -> bool) ->
  ?policy:Ucp_policy.id ->
  Ucp_cfg.Vivu.t ->
  Ucp_isa.Layout.t ->
  Ucp_cache.Config.t ->
  t
(** Run both analyses.  [~with_may:false] skips the may analysis, in
    which case unclassified references are reported [Not_classified]
    rather than [Always_miss] — the WCET bound is unchanged (both are
    charged as misses), and the optimizer's inner loop uses this to
    halve the fixpoint cost.

    [~policy] selects the replacement policy whose abstract domains are
    run (default LRU, bit-identical to the seed's analyses; see
    {!Ucp_policy}).  A policy whose must domain needs definite-miss
    information ({!Ucp_policy.needs_may}, i.e. FIFO) forces the may
    analysis on even under [~with_may:false]; always-miss
    classifications may then appear where the caller expected
    [Not_classified] — the WCET bound treats the two identically.

    [~pinned] marks memory blocks held in locked ways (the hybrid
    locking+prefetching schemes [16, 2] of the paper's perspectives):
    pinned references are always-hits and never enter the replacement
    state — pass the configuration of the {e unlocked} ways.
    @raise Ucp_util.Deadline.Deadline_exceeded if [?deadline] passes
    (checked once per fixpoint pass).
    @raise Fixpoint_diverged if the passes exceed the node count plus
    1000. *)

val vivu : t -> Ucp_cfg.Vivu.t
val layout : t -> Ucp_isa.Layout.t
val config : t -> Ucp_cache.Config.t

val policy : t -> Ucp_policy.id
(** The replacement policy the analysis modelled. *)

val is_plain : t -> bool
(** Whether the analysis ran without [~pinned] ways — the only mode
    the witness-replay audit supports.  Non-plain analyses get an
    explicit [Skipped] audit verdict instead of a silent pass. *)

val classif : t -> node:int -> pos:int -> Classification.t
(** Classification of an instruction slot of an expanded node. *)

val in_must : t -> int -> Ucp_cache.Abstract.t
(** Sound must state on entry to a node (join over all predecessors). *)

val in_may : t -> int -> Ucp_cache.Abstract.t

val slot_mem_block : t -> node:int -> pos:int -> int
(** [S(r)]: memory block fetched by the slot (the slot's own address). *)

val miss_count_bound : t -> int
(** Σ over expanded nodes of [mult x] WCET-charged misses — the
    analysis' upper bound on demand misses (used by Condition 2). *)

val override_classif : t -> (int * int * Classification.t) list -> t
(** [override_classif t [(node, pos, cls); ...]] is a copy of [t] with
    the listed slots reclassified — the feedback edge the exact
    classification refinement ([Ucp_refine]) uses to tighten the flow
    facts the IPET ILP sees.  [t] itself is untouched.  The caller
    vouches for the soundness of every override (the certification
    audit re-derives and cross-checks them). *)

val classification_counts : t -> int * int * int
(** [(ah, am, nc)]: how many instruction slots of the expanded graph
    were classified always-hit / always-miss / not-classified
    (unweighted by context multiplicity) — the per-policy
    classification-precision counters reported by the sweep. *)

val fixpoint_passes : t -> int
(** Number of sweeps the fixpoint needed (diagnostics). *)

val node_transfers : t -> int
(** Number of node transfers the run made: a sweep transfers only the
    nodes some predecessor's out-state changed for, plus one transfer
    from the cold state per node no state reaches (diagnostics; also
    added to the [fixpoint_node_transfers_total] registry counter). *)
