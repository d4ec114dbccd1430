(** Per-set exact reachability: the product of the VIVU-expanded graph
    with the concrete cache automaton of each focus set (Touzeau-style
    focused collapse — the policies are set-partitioned, so a set's
    automaton only tracks that set's state, and a block only matters
    through its slots that touch that set).

    One call explores every focus set of a refinement.  Sets never
    interact, so each is explored exactly as it would be alone; one
    topological sweep carries them together.  While a set has met at
    most [Sys.int_size] distinct states, its bits are one column of a
    slab of one word per (node, set), and a node expansion moves every
    such set at once: it reads the node's row, runs the memoized
    transfer only for the sets its block has events on, and merges the
    row into each successor.  A set that meets more states leaves the
    slab and finishes alone, set-at-a-time over bitsets of its own,
    resuming its walk right after the node it was expanding.  Either
    way its (node, state) expansions, memo misses and state numbering
    are those of its own walk. *)

(** One step of a block's walk that touches a focus set. *)
type event =
  | Access of { pos : int; mb : int }
      (** demand access of slot [pos] to memory block [mb] *)
  | Fill of int  (** prefetch fill of a memory block *)

type events
(** The focus sets' events, by block. *)

type r
(** One call's exploration: for each focus set, the reachable
    (expanded node, set state) pairs, each state interned once. *)

val default_budget : int
(** Default per-set cap on product pairs (32768). *)

val events : Ucp_isa.Layout.t -> Ucp_cache.Config.t -> int array -> events
(** [events layout config sets]: for each basic block, the listed
    cache [sets] (ascending) it touches and its events on each, in slot
    order — per slot its demand access, then its prefetch fill (the
    order of [Analysis.transfer] and the simulator).  A set is named by
    its index in [sets].  One pass over the layout's slot table
    ({!Ucp_isa.Layout.slot_mem_blocks},
    {!Ucp_isa.Layout.prefetch_targets}). *)

val block_events : events -> int -> int -> event array
(** [block_events events i block]: [block]'s events on the [i]th set,
    [[||]] if it has none. *)

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
  events:events ->
  Ucp_cfg.Vivu.t ->
  r
(** Product exploration of every set of [events], each from a cold
    entry along DAG and iteration edges — exactly the walk set the
    abstract fixpoint over-approximates.  Set at a time: per set, each
    distinct state is interned once, each block's transfer is memoized
    per (block, state), and every node carries the bitset of states
    reaching it, propagated in topological sweeps.  The reachable
    pairs, hence {!visited} and where the [budget] cuts a set's
    exploration short, do not depend on the order they are found in.
    @raise Ucp_util.Deadline.Deadline_exceeded if [?deadline] passes
    (checked on entry and every 256 node expansions). *)

val visited : r -> int -> int
(** [visited r i]: distinct (node, state) pairs the [i]th set reached;
    [budget + 1] when its budget ran out. *)

val exhausted : r -> int -> bool
(** The state budget cut the [i]th set's exploration short: its
    {!in_states} are partial and must not be used for verdicts. *)

val steps : r -> int -> int
(** Events stepped by the [i]th set's transfers (its memo misses). *)

val in_states : r -> int -> int -> Ucp_policy.cset list
(** [in_states r i node]: the [i]th set's reachable in-states of an
    expanded node, in interning order; [[]] if no walk reaches it. *)
