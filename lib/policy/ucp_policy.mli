(** Replacement-policy subsystem: the concrete per-set update and a
    sound abstract must/may domain for each supported policy.

    Everything here operates on a {e single cache set} with the
    associativity passed explicitly; set indexing, block mapping and
    whole-cache state belong to [ucp_cache].  The abstract domains are
    Ferdinand-style age-bound sets: a must set maps blocks to an upper
    bound on their replacement age (membership guarantees a hit), a may
    set maps blocks to a lower bound (absence guarantees a miss).  What
    "age" measures is policy-specific:

    - {b LRU}: recency position.  The domains are the seed's Ferdinand
      must/may analyses, bit-identical.
    - {b FIFO}: insertion position.  A hit does not reorder, so aging
      is miss-driven; the transfer branches on the access's own
      classification ({!type:hint}) and is conservative when the
      outcome is unknown (must ages without inserting, may inserts
      without evicting).  Precision comes only from definite outcomes,
      hence {!needs_may} — the analysis co-runs the may domain even
      when the caller only wants always-hit classification.
    - {b PLRU}: tree-based pseudo-LRU, power-of-two associativity
      only.  Must is the LRU must domain at effective associativity
      [log2 assoc + 1] (the [log2 k + 1] most recently accessed
      distinct blocks of a [k]-way tree-PLRU set are guaranteed
      resident); may never evicts, because an unaccessed block can
      survive arbitrarily many PLRU misses — always-miss holds exactly
      for blocks that can never have been inserted. *)

type id = Lru | Fifo | Plru

type kind = Must | May
(** Which abstract domain an operation acts on. *)

type hint = Hit | Miss | Unknown
(** Classification of the access being transferred, fed back into the
    abstract update so policies with outcome-dependent aging (FIFO) can
    use it.  [Unknown] is always sound; LRU and PLRU ignore hints. *)

val all : id list
val to_string : id -> string

val of_string : string -> (id, string) result
(** Case-insensitive; accepts ["lru"], ["fifo"], ["plru"]. *)

val pp : Format.formatter -> id -> unit

type aset = (int * int) list
(** Abstract per-set state: [(block, age bound)] sorted by block.  The
    [aset_*] operations below are single passes over such lists, and
    each returns its input list itself (or a shared tail of it) where
    the result equals it — an access that cannot change the set, a
    join with nothing to add — so callers may test physical equality
    first. *)

type cset = Order of int list | Tree of { ways : int array; bits : int }
(** Concrete per-set state: a recency/insertion queue (youngest first;
    LRU and FIFO) or the PLRU way array plus packed tree bits. *)

val cset_blocks : cset -> int list
val cset_copy : cset -> cset

(** The per-policy operation bundle. *)
module type POLICY = sig
  val id : id
  val name : string

  val needs_may : bool
  (** Whether the must domain only gains information when definite
      misses are known, so the analysis must co-run the may domain even
      when the caller did not ask for always-miss classification. *)

  val check_assoc : assoc:int -> unit
  (** @raise Invalid_argument if the policy cannot handle [assoc]
      (PLRU requires a power of two). *)

  val competitiveness : assoc:int -> (int * int * int) option
  (** Quantitative competitiveness against an LRU reference set
      (Kahlen/Reineke-style): [Some (va, ratio, add)] guarantees
      [misses_policy(assoc) <= ratio * misses_LRU(va) + add] for every
      per-set demand-access sequence from cold caches.  FIFO:
      [(k, k, k)] (Sleator-Tarjan conservativeness); PLRU:
      [(log2 k + 1, 1, 0)] (Reineke/Grund relative competitiveness);
      LRU: [None].  The bound does {e not} hold in the presence of
      prefetch fills — callers must gate on prefetch-free programs. *)

  val cset_empty : assoc:int -> cset

  val cset_access : assoc:int -> cset -> int -> cset * bool * int option
  (** [(state', hit, evicted)] after an access: a demand fetch, or a
      prefetch fill, whose verdict the caller drops (DESIGN.md §23).
      Obligation: an access of the block the previous access touched
      hits, evicts nothing and returns a state equal to its input.  A
      caller that knows it repeats that access may therefore count a
      hit and skip the call, as the trace simulator does
      (DESIGN.md §22). *)

  val cset_age : assoc:int -> cset -> int -> int option
  (** Policy-specific replacement age of a resident block (LRU/FIFO:
      queue position; PLRU: tree levels currently pointing at it). *)

  val aset_update : kind -> assoc:int -> hint:hint -> aset -> int -> aset
  (** Transfer an access, a demand fetch or a prefetch fill, under the
      given classification hint: whether the block is known resident
      ([Hit]), known absent ([Miss]) or unknown. *)

  val aset_join : kind -> aset -> aset -> aset
  (** Control-flow join: must = intersection with maximal age bounds,
      may = union with minimal age bounds. *)

  val aset_leq : kind -> aset -> aset -> bool
  (** Domain order with [aset_join] as an upper bound: [leq a b] iff
      every concrete set state described by [a] is described by [b]. *)
end

val find : id -> (module POLICY)
val needs_may : id -> bool

val check_assoc : id -> assoc:int -> unit
(** @raise Invalid_argument if the policy cannot handle [assoc]. *)

val competitiveness : id -> assoc:int -> (int * int * int) option
(** Per-policy quantitative competitiveness triple [(va, ratio, add)];
    see {!POLICY.competitiveness}. *)

val plru_must_assoc : int -> int
(** Effective LRU associativity of the PLRU must domain:
    [log2 assoc + 1].  Exposed for tests and documentation. *)
