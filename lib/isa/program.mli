(** Programs: arrays of basic blocks over the mini-RISC ISA.

    A program is a CFG skeleton: blocks hold straight-line instruction
    bodies and end in a terminator.  Terminators that transfer control
    explicitly (jump, conditional branch, return) occupy one instruction
    slot of their own; a plain fall-through occupies none, matching how
    compilers lay out code.

    Programs are immutable; the optimizer derives new, prefetch-extended
    programs with {!insert_prefetches} ("prefetch-equivalent" programs in
    the paper's Definition 5). *)

type terminator =
  | Fallthrough of int  (** control continues at the given block, no instruction emitted *)
  | Jump of { uid : int; target : int }  (** unconditional jump *)
  | Cond of {
      uid : int;
      taken : int;
      fallthrough : int;
      model : Branch_model.t;
    }  (** conditional branch; [model] drives the trace simulator *)
  | Return of { uid : int }  (** program exit *)

type block = {
  body : Instr.t array;
  term : terminator;
  loop_bound : int option;
      (** maximum iterations when this block heads a natural loop;
          mandatory for WCET analysis of loops *)
}

type t

(** Block descriptions fed to {!make}; uids are assigned automatically
    and all body instructions start as {!Instr.Compute}. *)
type spec = {
  spec_body : int;  (** number of body instructions *)
  spec_term : spec_term;
  spec_bound : int option;  (** loop bound if the block heads a loop *)
}

and spec_term =
  | S_fallthrough of int
  | S_jump of int
  | S_cond of { taken : int; fallthrough : int; model : Branch_model.t }
  | S_return

val make : name:string -> entry:int -> spec array -> t
(** Build and validate a program.
    @raise Invalid_argument on dangling block ids, nonpositive loop
    bounds or body sizes, or an out-of-range entry. *)

val name : t -> string
val entry : t -> int
val block_count : t -> int

val block : t -> int -> block
(** @raise Invalid_argument on out-of-range id. *)

val successors : t -> int -> int list
(** Successor block ids of a block (empty for returns). *)

val slots : t -> int -> int
(** Number of instruction slots of a block: body plus one for an
    explicit terminator. *)

val total_slots : t -> int
(** Static instruction count of the whole program. *)

val slot_instr : t -> block:int -> pos:int -> Instr.t
(** The instruction at slot [pos] of [block]; [pos = body length]
    addresses the explicit terminator.
    @raise Invalid_argument if the slot does not exist. *)

val term_uid : t -> int -> int option
(** Uid of the block's terminator instruction, if it occupies a slot. *)

val insert_prefetch : t -> block:int -> pos:int -> target_uid:int -> t * int
(** [insert_prefetch p ~block ~pos ~target_uid] returns a program with a
    prefetch for the memory block of [target_uid] inserted before body
    position [pos] ([pos] = body length inserts just before the
    terminator), together with the fresh uid of the new instruction.
    @raise Invalid_argument on bad coordinates or unknown target uid. *)

val insert_prefetches : t -> (int * int * int) list -> t
(** [insert_prefetches p batch] is {!insert_prefetch} folded over the
    [(block, pos, target_uid)] triples of [batch]: the [i]-th prefetch
    gets uid [uid_bound p + i].  One pass checks that every target
    names an instruction of [p]. *)

val remove_uid : t -> int -> t
(** Remove the instruction with the given uid.  Nothing in the tool
    flow calls it (the optimizer discards a rejected candidate's
    program rather than rolling it back); it is kept because it is the
    only way to orphan a prefetch, which the tests of
    {!Layout.Dangling_prefetch_target} need.
    @raise Invalid_argument if the uid names a terminator or is absent. *)

val find_uid : t -> int -> (int * int) option
(** [find_uid p uid] locates an instruction as [(block, pos)]. *)

val uid_bound : t -> int
(** Every instruction uid of the program is below this bound (uids are
    never reused, so a removed instruction's uid stays below it too). *)

val prefetch_count : t -> int
(** Number of prefetch instructions in the program. *)

val same_control_flow : t -> t -> bool
(** Same entry, block count, terminators (kind, targets and branch
    model; uids aside) and loop bounds: the two programs differ at most
    in their block bodies. *)

val prefetch_equivalent : t -> t -> bool
(** Definition 5: indistinguishable except for prefetch instructions
    (same blocks, terminators, bounds, and non-prefetch bodies). *)

val iter_slots : t -> (block:int -> pos:int -> instr:Instr.t -> unit) -> unit
(** Iterate over every instruction slot in block order. *)

val pp : Format.formatter -> t -> unit
(** Multi-line listing of the program. *)
