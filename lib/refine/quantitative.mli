(** Quantitative competitiveness bounds for non-LRU policies (Kahlen &
    Reineke style): a sound whole-run bound on the policy's demand
    misses derived from an LRU reference analysis via
    {!Ucp_policy.competitiveness}. *)

val miss_bound :
  ?deadline:Ucp_util.Deadline.t -> Ucp_wcet.Analysis.t -> int option
(** [miss_bound a] is [Some b] with
    [misses_policy <= b] on {e every} execution, where
    [b = ratio * lru_bound(va) + add * sets] per the policy's
    competitiveness triple, [sets] counting the distinct cache sets
    the program's references map to — or [None] when the policy has no
    competitiveness bound (LRU), the analysis is non-plain, or the
    program contains prefetch instructions (fills break the phase
    argument behind the inequality).  Under PLRU, [lru_bound(va)] is
    [a]'s own {!Ucp_wcet.Analysis.miss_count_bound}: PLRU's must
    domain is LRU's at [va].  Under FIFO it comes from an LRU
    must analysis at [va], run here ([?deadline] bounds it). *)
