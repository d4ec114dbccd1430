(** Instructions of the mini-RISC machine.

    Every instruction occupies one 4-byte slot in the address space.
    Instructions carry a unique identifier [uid] that survives address
    relocation: when the optimizer inserts a prefetch, addresses of
    earlier instructions change but uids do not, so prefetch targets
    and analysis results can be tracked across program versions. *)

type kind =
  | Compute  (** any ordinary instruction: ALU op, load, store, ... *)
  | Prefetch of int
      (** [Prefetch target_uid] loads the memory block containing the
          instruction identified by [target_uid] through the cache's
          non-blocking port.  The processor does not stall. *)

type t = { uid : int; kind : kind }

val compute : uid:int -> t
(** An ordinary instruction. *)

val prefetch : uid:int -> target:int -> t
(** A software-prefetch instruction aimed at the block of [target]. *)

val is_prefetch : t -> bool
(** [true] iff the instruction is a {!Prefetch}. *)

val bytes : int
(** Size of every instruction: 4 bytes. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering, e.g. ["i17"] or ["pf(i3)@i17"]. *)
