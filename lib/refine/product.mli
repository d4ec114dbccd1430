(** Per-set exact reachability: the product of the VIVU-expanded graph
    with the concrete cache automaton of one cache set (Touzeau-style
    focused collapse — the policies are set-partitioned, so the
    automaton only tracks the focus set's state, and a block only
    matters through its slots that touch that set). *)

(** One step of a block's walk that touches the tracked set. *)
type event =
  | Access of { pos : int; mb : int }
      (** demand access of slot [pos] to memory block [mb] *)
  | Fill of int  (** prefetch fill of a memory block *)

type r
(** One set's exploration: the reachable (expanded node, set state)
    pairs, each state interned once. *)

val default_budget : int
(** Default per-set cap on product pairs (32768). *)

val events :
  Ucp_isa.Layout.t -> Ucp_cache.Config.t -> int list -> (int * event array array) list
(** [events layout config sets]: for each listed cache set, each basic
    block's events on that set, indexed by block id, in slot order —
    per slot its demand access, then its prefetch fill (the order of
    [Analysis.transfer] and the simulator).  One pass over the
    layout's slot table ({!Ucp_isa.Layout.slot_mem_blocks},
    {!Ucp_isa.Layout.prefetch_targets}). *)

val transfer :
  (module Ucp_policy.POLICY) ->
  assoc:int ->
  ?on_access:(pos:int -> hit:bool -> unit) ->
  event array ->
  Ucp_policy.cset ->
  Ucp_policy.cset
(** Thread one set's state through a block's events, each one
    {!Ucp_policy.POLICY.cset_access}; a block without events returns
    its in-state unchanged.  [on_access] observes the hit verdict of
    every demand access, and of no fill. *)

val reachable :
  ?deadline:Ucp_util.Deadline.t ->
  ?budget:int ->
  policy:Ucp_policy.id ->
  assoc:int ->
  events:event array array ->
  Ucp_cfg.Vivu.t ->
  r
(** Product sweep of one set, whose per-block [events] {!events}
    built, from a cold entry along DAG and iteration edges — exactly
    the walk set the abstract fixpoint over-approximates.  Set at a
    time: each distinct state is interned once, each block's transfer
    is memoized per (block, state), and every node carries the bitset
    of states reaching it, propagated in topological sweeps.  The
    reachable pairs, hence {!visited} and where the [budget] cuts the
    sweep short, do not depend on the order they are found in.
    @raise Ucp_util.Deadline.Deadline_exceeded if [?deadline] passes
    (checked every 256 node expansions). *)

val visited : r -> int
(** Distinct (node, state) pairs reached; [budget + 1] when the
    budget ran out. *)

val exhausted : r -> bool
(** The state budget cut the sweep short: {!in_states} is partial and
    must not be used for verdicts. *)

val steps : r -> int
(** Events stepped by the transfers the sweep ran (memo misses). *)

val in_states : r -> int -> Ucp_policy.cset list
(** Reachable in-states of an expanded node, in interning order; [[]]
    if no walk reaches it. *)
