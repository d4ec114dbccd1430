(** Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm.

    Needed to identify back edges and natural loops, which in turn drive
    the VIVU transformation and loop-bound bookkeeping of WCET analysis. *)

type t

val compute : Ucp_isa.Program.t -> t
(** Immediate dominators of all blocks reachable from the entry.
    @raise Invalid_argument if some block is unreachable. *)

val of_order : rpo:int array -> preds:int list array -> t
(** {!compute} from a program's {!Cfgraph.reverse_postorder} and
    {!Cfgraph.predecessors}. *)

val idom : t -> int -> int
(** Immediate dominator of a block; the entry is its own idominator. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b]: does [a] dominate [b] (reflexively)?  In constant
    time: is [b] in [a]'s subtree of the dominator tree? *)
