(** End-anchored address layout and memory-block mapping.

    Blocks are laid out consecutively in block-id order.  The layout is
    anchored at the {e end} of the program: the final instruction always
    occupies the slot just below [end_addr].  Inserting an instruction
    therefore relocates every instruction {e before} the insertion point
    (their addresses drop by 4) and leaves everything after it in place
    — exactly the relocation discipline behind the paper's [rcost]
    (Equation 8), where only "references preceding r{_i} in the address
    space" move. *)

type t

(** What a slot prefetches. *)
type target =
  | No_target  (** a compute instruction or a terminator *)
  | Target of int  (** a prefetch, with the memory block it loads *)
  | Dangling of int
      (** a prefetch whose target uid is absent from the program *)

val end_addr : int
(** The fixed anchor address (a multiple of every supported memory-block
    size). *)

val make : Program.t -> block_bytes:int -> t
(** Compute the layout of a program for a given memory-block size,
    together with its slot table: the memory block and the prefetch
    target of every slot ({!slot_mem_blocks}, {!prefetch_targets}).
    @raise Invalid_argument if [block_bytes] is not a positive multiple
    of {!Instr.bytes}. *)

val program : t -> Program.t
val block_bytes : t -> int
val items_per_block : t -> int
(** Instructions per memory block ([block_bytes / 4]). *)

val addr : t -> block:int -> pos:int -> int
(** Byte address of an instruction slot.
    @raise Invalid_argument on a nonexistent slot. *)

val mem_block : t -> block:int -> pos:int -> int
(** [S(r)]: id of the memory block holding the slot. *)

val mem_block_of_addr : t -> int -> int
(** Memory block id of a byte address. *)

val addr_of_uid : t -> int -> int option
(** Address of the instruction with the given uid, if present (a scan
    of the program). *)

val slot_mem_blocks : t -> int -> int array
(** [slot_mem_blocks t block]: {!mem_block} of each slot of a basic
    block, indexed by position, as {!make} computed it.  The slot
    walkers (the cache analysis, the exact refinement and the
    simulator) read this table instead of recomputing addresses.  The
    array is shared: do not mutate it. *)

val prefetch_targets : t -> int -> target array
(** [prefetch_targets t block]: what each slot of a basic block
    prefetches, indexed by position.  A prefetch's target is the
    memory block of the slot holding its target uid, resolved once by
    {!make}.  The array is shared: do not mutate it. *)

val first_slot_of_mem_block : t -> int -> (int * int) option
(** [R(s)]: the [(block, pos)] of the lowest-addressed instruction
    stored in memory block [s], or [None] if [s] holds no code. *)

val slots_of_mem_block : t -> int -> (int * int) list
(** All instruction slots residing in a memory block, in address order. *)

val mem_block_ids : t -> int list
(** All memory blocks containing at least one instruction, ascending. *)

val code_mem_blocks : t -> int
(** Number of distinct memory blocks occupied by the program. *)
