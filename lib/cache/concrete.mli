(** Concrete set-associative cache (Section 3.1's [c : L -> S]).

    Mutable; used by the trace simulator and as the ground truth against
    which the abstract domains are property-tested.  The replacement
    policy defaults to LRU (the paper's platform); FIFO and tree-based
    PLRU are first-class citizens of the {!Ucp_policy} subsystem, and
    each policy has matching sound abstract must/may domains in
    {!Abstract} — the analyses are policy-parametric, not LRU-only. *)

type t

type policy = Ucp_policy.id = Lru | Fifo | Plru
(** Re-export of {!Ucp_policy.id} so existing callers can keep writing
    [Concrete.Lru] etc. *)

type outcome =
  | Hit
  | Miss of int option
      (** the block brought in caused the eviction of the given block,
          if the set was full *)

val create : ?policy:policy -> Config.t -> t
(** Empty (all-invalid) cache.
    @raise Invalid_argument if the policy rejects the configuration's
    associativity (PLRU requires a power of two). *)

val policy : t -> policy

val copy : t -> t

val access : t -> int -> outcome
(** [access t mb] references memory block [mb]: a hit updates the
    replacement state per the policy (LRU: block becomes most recently
    used; FIFO: position unchanged; PLRU: tree bits point away from the
    block); a miss inserts it, evicting the policy's victim when the
    set is full (PLRU fills invalid ways first).  A prefetch fill is
    the same access, whose outcome says whether the block was already
    resident (DESIGN.md §23). *)

val age : t -> int -> int option
(** Replacement age of a cached block within its set; 0 = most recently
    used (LRU) / most recently inserted (FIFO) / fully protected
    (PLRU: the count of tree levels pointing at the block). *)

val contents : t -> int list
(** All resident memory blocks, ascending. *)

val resident_in_set : t -> int -> int list
(** Blocks of one set; LRU/FIFO: youngest first, PLRU: way order. *)

val config : t -> Config.t
