(** Basic graph traversals over a program's control-flow graph.

    Blocks are the vertices; {!Ucp_isa.Program.successors} defines the
    edges.  Every block must be reachable from the entry: workload
    programs are required to be fully connected. *)

val predecessors : Ucp_isa.Program.t -> int list array
(** [predecessors p] maps each block id to its predecessor ids. *)

val reverse_postorder : Ucp_isa.Program.t -> int array
(** Reverse postorder of the blocks; the entry comes first.  A classic
    iteration order for forward dataflow.  One depth-first search,
    which recurses once per block on its path.
    @raise Invalid_argument if some block is unreachable. *)

val postorder_index : int array -> int array
(** [postorder_index rpo] maps each block to its postorder number in
    [rpo], a {!reverse_postorder}. *)

val check_all_reachable : Ucp_isa.Program.t -> unit
(** @raise Invalid_argument if some block is unreachable. *)

val exits : Ucp_isa.Program.t -> int list
(** Blocks terminating in [Return], in ascending id order. *)
