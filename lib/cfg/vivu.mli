(** VIVU virtual loop unrolling (Martin/Alt/Wilhelm style, peel factor
    one) as used by the paper (Section 4.1, Supplement S.3).

    Every basic block is instantiated once per {e context}: the chain of
    loops containing it, each marked [First] (first iteration per entry)
    or [Rest] (all later iterations).  Back edges from a [First] context
    lead to the [Rest] instance; back edges from a [Rest] context close
    a cycle and are kept apart as {e iteration edges} so that

    - the {e DAG edges} form an acyclic graph ("back edges are broken",
      Definition 6) used for topological sweeps, path analysis and the
      reverse optimization, and
    - abstract interpretation can still reach a sound fixpoint by also
      propagating along iteration edges.

    A node's {!mult} is its maximum execution count per program run
    ([First] contributes 1, [Rest] contributes [bound - 1],
    multiplicatively over the context chain).

    The expansion depends on the control flow alone — block count,
    entry, terminators and loop bounds — never on block bodies, so
    programs that differ only in their bodies share one expansion
    ({!rebind}). *)

type mark = First | Rest

type node = { block : int; ctx : (int * mark) list }
(** Context entries are [(loop index, mark)], outermost first. *)

type t

val expand : Ucp_isa.Program.t -> t
(** Analyze loops and expand.  @raise Invalid_argument on irreducible
    CFGs or missing loop bounds (see {!Loops.analyze}). *)

val rebind : t -> Ucp_isa.Program.t -> t
(** [rebind t p] is [expand p] for a [p] with the control flow of
    [program t] ({!Ucp_isa.Program.same_control_flow}), such as [program
    t] with prefetches inserted: it shares [t]'s graph instead of
    expanding again.
    @raise Invalid_argument if [p]'s control flow differs. *)

val program : t -> Ucp_isa.Program.t
val forest : t -> Loops.forest
val node_count : t -> int
val node : t -> int -> node
val entry : t -> int
(** Id of the entry node. *)

val exit_nodes : t -> int list
(** Nodes whose block returns. *)

val dag_succ : t -> int -> int list
val dag_pred : t -> int -> int list

val iter_succ : t -> int -> int list
(** Successors through iteration (rest back) edges only — the
    wrap-around edges a lap of the loop follows back to its rest
    header. *)

val iter_pred : t -> int -> int list
(** Predecessors through iteration (rest back) edges only. *)

val all_pred : t -> int -> int list
(** DAG plus iteration predecessors — the sound input set for abstract
    interpretation. *)

val mult : t -> int -> int
(** Maximum execution count of the node per program run. *)

val topo : t -> int array
(** Node ids in a topological order of the DAG edges (entry first). *)

val find : t -> block:int -> ctx:(int * mark) list -> int option
(** Node id lookup. *)

val instances_of_block : t -> int -> int list
(** All node ids instantiating a given basic block. *)

val pp_node : t -> Format.formatter -> int -> unit
(** E.g. ["b4<L0:F,L1:R>"]. *)
