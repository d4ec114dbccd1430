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

type r = {
  per_node : Ucp_policy.cset list array;
      (** reachable in-states per expanded node, in discovery order *)
  visited : int;  (** total (node, state) product pairs discovered *)
  exhausted : bool;
      (** the state budget cut the sweep short — [per_node] is partial
          and must not be used for verdicts *)
  steps : int;  (** events the sweep's transfers stepped through *)
}

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
(** Thread one set's state through a block's events; a block without
    events returns its in-state unchanged.  [on_access] observes the
    hit verdict of every demand access. *)

val reachable :
  ?deadline:Ucp_util.Deadline.t ->
  ?budget:int ->
  policy:Ucp_policy.id ->
  assoc:int ->
  events:event array array ->
  Ucp_cfg.Vivu.t ->
  r
(** Breadth-first product sweep of one set, whose per-block [events]
    {!events} built, from a cold entry along DAG and iteration edges —
    exactly the walk set the abstract fixpoint over-approximates.
    Deterministic, including where the [budget] cuts it short.
    @raise Ucp_util.Deadline.Deadline_exceeded if [?deadline] passes
    (checked every 256 expansions). *)
