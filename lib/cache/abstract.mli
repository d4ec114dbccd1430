(** Abstract cache states for must/may analysis (Ferdinand-style, the
    classical semantics the paper reuses from [8, 21]), parametric in
    the replacement policy (see {!Ucp_policy}; default LRU, for which
    the domains are bit-identical to the seed's LRU-only analyses).

    A state maps each resident memory block to an {e age bound}:

    - {b Must}: the age is an {e upper} bound — the block is guaranteed
      to be cached with at most that age.  Join is intersection with
      maximal ages.  A reference to a block present in the must state is
      an {e always-hit}.
    - {b May}: the age is a {e lower} bound — the block might be cached,
      never younger than that age.  Join is union with minimal ages.  A
      reference to a block absent from the may state is an
      {e always-miss}.

    A state holds one {!Ucp_policy.aset} per cache set, so its size
    follows the cache and the blocks actually seen, not the program.
    A transfer replaces the one set it touches; states derived from
    one another share every other set physically, and {!join},
    {!leq} and {!equal} skip physically equal sets.

    States are immutable except through {!update_ip} and
    {!transfer_ip}; [update] implements the abstract update Û of the
    selected policy.  The prefetch-extended semantics (as in the
    prefetching extension of the abstract semantics [22]) installs a
    prefetched block by the same update: under every supported policy
    a fill changes a set exactly as an access of the block does
    (DESIGN.md §23).  Policies whose aging depends on the access
    outcome (FIFO) additionally take a classification [?hint] for the
    transferred access; [Unknown] is always sound and LRU/PLRU ignore
    hints entirely. *)

type kind = Ucp_policy.kind = Must | May

type t

val empty : ?policy:Ucp_policy.id -> Config.t -> kind -> t
(** Cold cache: nothing resident.  For must analysis this is also the
    sound "no guarantees" element used at unknown program points.
    @raise Invalid_argument if the policy rejects the configuration's
    associativity (PLRU requires a power of two). *)

val kind : t -> kind
val config : t -> Config.t

val policy : t -> Ucp_policy.id
(** The replacement policy this state models. *)

val update : ?hint:Ucp_policy.hint -> t -> int -> t
(** Abstract update for an access to a memory block, a demand
    reference or a prefetch fill.  [?hint] (default [Unknown]) is the
    classification of this very access, when the caller knows it:
    whether the block is known resident ([Hit]), known absent ([Miss])
    or unknown. *)

val copy : t -> t
(** Independent copy, for use with the destructive variants below:
    mutations of the copy never reach the original (the per-set lists
    themselves are immutable and stay shared). *)

val update_ip : ?hint:Ucp_policy.hint -> t -> int -> unit
(** Destructive {!update}, for the analysis hot loop: replaces the
    accessed block's set in [t].  Only apply to states obtained from
    {!copy} that no other holder can observe — one copy per node
    transfer instead of one per instruction slot. *)

val join : t -> t -> t
(** Must: intersection/max-age.  May: union/min-age.  Returns its
    first argument itself when the join adds nothing to it.
    @raise Invalid_argument when kinds, configurations or policies
    differ. *)

val leq : t -> t -> bool
(** Domain order with {!join} as an upper bound: [leq a b] iff every
    concrete cache described by [a] is also described by [b].
    @raise Invalid_argument when kinds, configurations or policies
    differ. *)

val contains : t -> int -> bool
(** Membership in the abstract state (guaranteed for must, possible for
    may). *)

val age : t -> int -> int option
(** Age bound of a block, if resident. *)

val blocks : t -> int list
(** Resident blocks, ascending (the paper's [B(ĉ)], Definition 9). *)

val transfer_ip : ?hint:Ucp_policy.hint -> t -> int -> int list
(** [transfer_ip t mb] is {!update_ip} of [mb], under the same
    ownership contract, and returns the blocks other than [mb] that
    the transfer removed from the state, ascending — for must
    analysis, the references that lose their cached guarantee.  This
    implements the replacement detection of Property 3 that drives
    prefetch-candidate discovery, in the same pass as the transfer the
    discovery's chain walk applies. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
