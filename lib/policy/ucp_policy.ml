(* Replacement-policy subsystem: concrete per-set updates and sound
   abstract must/may domains for LRU, FIFO and tree-based PLRU.

   This module sits below ucp_cache: everything here operates on a
   single cache set and takes the associativity explicitly.  Set
   indexing, block mapping and whole-cache state live in ucp_cache. *)

type id = Lru | Fifo | Plru
type kind = Must | May
type hint = Hit | Miss | Unknown

let all = [ Lru; Fifo; Plru ]

let to_string = function Lru -> "lru" | Fifo -> "fifo" | Plru -> "plru"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "lru" -> Ok Lru
  | "fifo" -> Ok Fifo
  | "plru" | "pseudo-lru" -> Ok Plru
  | other -> Error (Printf.sprintf "unknown replacement policy %S" other)

let pp ppf p = Fmt.string ppf (to_string p)

(* Abstract per-set state: an association list [(block, age bound)]
   sorted by block number.  For a must set the age is an upper bound on
   the block's replacement age (smaller = safer); for a may set it is a
   lower bound.  The meaning of "age" is policy-specific: LRU recency
   position, FIFO insertion position, or the PLRU effective-LRU bound. *)
type aset = (int * int) list

(* Concrete per-set state.  [Order] is a recency/insertion queue,
   youngest first, used by LRU and FIFO.  [Tree] is the PLRU way array
   plus the packed tree bits (internal nodes heap-indexed from 1; bit =
   direction the victim search takes: 0 left, 1 right). *)
type cset = Order of int list | Tree of { ways : int array; bits : int }

(* ---------------------------------------------------------------- *)
(* Shared concrete helpers                                          *)
(* ---------------------------------------------------------------- *)

let cset_blocks cs =
  match cs with
  | Order l -> l
  | Tree t -> Array.to_list t.ways |> List.filter (fun w -> w >= 0)

let cset_copy cs =
  match cs with
  | Order l -> Order l
  | Tree t -> Tree { ways = Array.copy t.ways; bits = t.bits }

(* Position of [mb] in an LRU or FIFO queue whose youngest entry is at
   [i]; -1 if absent.  The [int] annotations of the queue helpers make
   every block comparison an integer compare, as in the abstract
   helpers below. *)
let rec order_pos i (mb : int) = function
  | [] -> -1
  | x :: tl -> if x = mb then i else order_pos (i + 1) mb tl

(* Queue access shared by LRU and FIFO: [reorder] is whether a hit
   moves the block to the front (LRU yes, FIFO no).  A hit on the
   youngest entry leaves the queue as it is under both. *)
let order_access ~reorder ~assoc (lst : int list) (mb : int) =
  match lst with
  | youngest :: _ when youngest = mb -> (lst, true, None)
  | _ when order_pos 0 mb lst >= 0 ->
    let lst' = if reorder then mb :: List.filter (fun x -> x <> mb) lst else lst in
    (lst', true, None)
  | _ when List.length lst < assoc -> (mb :: lst, false, None)
  | _ ->
    (* [[]] is unreachable: this arm runs only when
       [List.length lst >= assoc], and every [assoc] is a [Config.t]'s,
       which [Config.make] keeps [>= 1], so [lst] is non-empty; and
       [split_last] recurses only past the head of a list of two or
       more entries, so never onto [[]]. *)
    let rec split_last acc = function
      | [] -> assert false
      | [ last ] -> (List.rev acc, last)
      | x :: tl -> split_last (x :: acc) tl
    in
    let kept, victim = split_last [] lst in
    (mb :: kept, false, Some victim)

let order_age lst mb =
  let i = order_pos 0 mb lst in
  if i < 0 then None else Some i

(* ---------------------------------------------------------------- *)
(* Shared abstract helpers                                          *)
(* ---------------------------------------------------------------- *)

(* Every helper below is one pass over lists sorted by block, and
   hands back its input list itself, or a shared tail of it, wherever
   the result would equal it: the per-set states of [Abstract] share
   untouched sets and tails physically, which its joins and
   comparisons test first.  The [int] and [aset] annotations make
   every block comparison an integer compare rather than a call to the
   polymorphic one.  [Ucp_testlib] keeps the seed's filter-and-sort
   formulas as the reference they are qcheck-tested against. *)

(* Age bound of [mb] in a set, [absent] if it is not there. *)
let rec age_in ~absent (mb : int) : aset -> int = function
  | [] -> absent
  | (x, a) :: tl -> if x < mb then age_in ~absent mb tl else if x = mb then a else absent

(* The entries other than [mb], each aged by one if its bound is below
   [below] and dropped once it reaches [cap], with [(mb, 0)] inserted
   in block order when [ins]. *)
let rec shift ~cap ~below ~ins (mb : int) : aset -> aset = function
  | [] -> if ins then [ (mb, 0) ] else []
  | ((x, a) as e) :: tl as l ->
    if x = mb then if ins then (mb, 0) :: shift ~cap ~below ~ins:false mb tl
      else shift ~cap ~below ~ins mb tl
    else
      let here = ins && x > mb in
      let rest = shift ~cap ~below ~ins:(ins && not here) mb tl in
      let rest =
        if a >= below then if rest == tl then l else e :: rest
        else if a + 1 >= cap then rest
        else (x, a + 1) :: rest
      in
      if here then (mb, 0) :: rest else rest

(* Ferdinand-style LRU set update, the seed's [Abstract.update_set]:
   the accessed block moves to age 0, entries younger than its old age
   (bound) age by one, entries at or beyond [assoc] fall out.
   Identical for must and may sets; an access at age 0 changes
   nothing. *)
let lru_update_set ~assoc entries mb =
  let old_age = age_in ~absent:assoc mb entries in
  if old_age = 0 then entries else shift ~cap:assoc ~below:old_age ~ins:true mb entries

(* Insertion at age 0 that ages no one: the FIFO and PLRU may sets. *)
let rec insert_young (entries : aset) (mb : int) =
  match entries with
  | [] -> [ (mb, 0) ]
  | ((x, a) as e) :: tl ->
    if x < mb then
      let rest = insert_young tl mb in
      if rest == tl then entries else e :: rest
    else if x > mb then (mb, 0) :: entries
    else if a = 0 then entries
    else (mb, 0) :: tl

(* Control-flow join.  Must: intersection, keeping the maximal
   (weakest) age bound; may: union, keeping the minimal (weakest) age
   lower bound.  The result is [ea] or [eb] itself where it equals
   it. *)
let rec join_sets ~must (ea : aset) (eb : aset) =
  if ea == eb then ea
  else
    match (ea, eb) with
    | [], _ -> if must then ea else eb
    | _, [] -> if must then eb else ea
    | ((x, a) as e) :: ta, ((y, b) as f) :: tb ->
      if x < y then
        let rest = join_sets ~must ta eb in
        if must then rest else if rest == ta then ea else e :: rest
      else if x > y then
        let rest = join_sets ~must ea tb in
        if must then rest else if rest == tb then eb else f :: rest
      else
        let rest = join_sets ~must ta tb in
        if (if must then a > b else a < b) then if rest == ta then ea else e :: rest
        else if rest == tb then eb
        else if a = b && rest == ta then ea
        else f :: rest

let aset_join kind ea eb =
  join_sets ~must:(match kind with Must -> true | May -> false) ea eb

(* Domain order with [join] as upper bound: [leq a b] iff every
   concrete set state described by [a] is also described by [b].
   Must: [b]'s guarantees are implied by [a]'s (each entry of [b] is in
   [a] with an age bound no larger).  May: [a]'s possibilities are
   contained in [b]'s (each entry of [a] is in [b] with an age lower
   bound no larger). *)
let rec leq_must (a : aset) (b : aset) =
  a == b
  ||
  match (a, b) with
  | _, [] -> true
  | [], _ :: _ -> false
  | (x, aa) :: ta, (y, ab) :: tb ->
    if x < y then leq_must ta b else x = y && aa <= ab && leq_must ta tb

let rec leq_may (a : aset) (b : aset) =
  a == b
  ||
  match (a, b) with
  | [], _ -> true
  | _ :: _, [] -> false
  | (x, aa) :: ta, (y, ab) :: tb ->
    if x > y then leq_may a tb else x = y && ab <= aa && leq_may ta tb

let aset_leq kind a b = match kind with Must -> leq_must a b | May -> leq_may a b

(* ---------------------------------------------------------------- *)
(* The policy signature                                             *)
(* ---------------------------------------------------------------- *)

module type POLICY = sig
  val id : id
  val name : string

  val needs_may : bool
  (** Whether the must domain only gains information when definite
      misses are known, so the analysis must co-run the may domain even
      when the caller did not ask for always-miss classification. *)

  val check_assoc : assoc:int -> unit
  (** @raise Invalid_argument if the policy cannot handle [assoc]. *)

  val competitiveness : assoc:int -> (int * int * int) option
  (** Quantitative competitiveness against an LRU reference set
      (Kahlen/Reineke-style): [Some (va, ratio, add)] means every
      per-set reference sequence (cold start, demand accesses only)
      satisfies [misses_policy(assoc) <= ratio * misses_LRU(va) + add].
      [None] when no useful bound exists (LRU itself). *)

  (* Concrete per-set machine *)
  val cset_empty : assoc:int -> cset
  val cset_access : assoc:int -> cset -> int -> cset * bool * int option
  (** [(state', hit, evicted)] after an access, a demand fetch or a
      prefetch fill.  Obligation: a re-access of the block the previous
      access touched hits, evicts nothing and leaves the state equal
      (LRU: the block is already youngest; FIFO: hits never reorder;
      PLRU: touching the same way twice sets the same bits). *)

  val cset_age : assoc:int -> cset -> int -> int option
  (** Policy-specific replacement age of a resident block (LRU/FIFO:
      queue position; PLRU: tree levels currently pointing at it). *)

  (* Abstract must/may domain *)
  val aset_update : kind -> assoc:int -> hint:hint -> aset -> int -> aset
  (** Transfer an access, a demand fetch or a prefetch fill.  [hint] is
      the classification of this very access (from the analysis):
      policies whose aging depends on hit/miss (FIFO) exploit it; LRU
      and PLRU ignore it.  Must be sound for [Unknown] regardless. *)

  val aset_join : kind -> aset -> aset -> aset
  val aset_leq : kind -> aset -> aset -> bool
end

(* ---------------------------------------------------------------- *)
(* LRU: the seed's Ferdinand domains behind the interface           *)
(* ---------------------------------------------------------------- *)

module Lru_policy : POLICY = struct
  let id = Lru
  let name = "lru"
  let needs_may = false
  let check_assoc ~assoc:_ = ()

  (* LRU is its own reference policy: a competitiveness bound against
     itself adds nothing over the direct must/may analysis. *)
  let competitiveness ~assoc:_ = None
  let cset_empty ~assoc:_ = Order []

  let cset_access ~assoc cs mb =
    match cs with
    | Order l ->
        let l', hit, v = order_access ~reorder:true ~assoc l mb in
        (Order l', hit, v)
    | Tree _ -> invalid_arg "Lru: PLRU tree state"

  let cset_age ~assoc:_ cs mb =
    match cs with
    | Order l -> order_age l mb
    | Tree _ -> invalid_arg "Lru: PLRU tree state"

  let aset_update _kind ~assoc ~hint:_ entries mb = lru_update_set ~assoc entries mb
  let aset_join = aset_join
  let aset_leq = aset_leq
end

(* ---------------------------------------------------------------- *)
(* FIFO: hits do not reorder; aging is miss-driven                  *)
(* ---------------------------------------------------------------- *)

(* Age bounds track the insertion position.  A concrete FIFO set only
   changes on a miss: the new block enters at position 0, every
   resident block's position grows by one, the block at [assoc - 1] is
   evicted.  A hit changes nothing.  The abstract transfer therefore
   branches on the access classification:

   - must (upper bounds): a definite hit leaves the set unchanged; a
     definite miss ages everything and inserts the block at 0; when the
     outcome is unknown we must take the worst of both branches — age
     every other entry (max of "unchanged" and "+1") and do NOT insert
     the accessed block (it enters only on the miss branch).  A block
     already guaranteed resident is a definite hit even under [Unknown].
   - may (lower bounds): a definite hit leaves the set unchanged; a
     definite miss ages every lower bound (a bound reaching [assoc]
     means definitely evicted) and inserts the block at 0; under an
     unknown outcome the union of the two branches keeps every other
     entry at its old bound (min of "unchanged" and "+1") and inserts
     the accessed block at 0 without evicting anyone.

   This is the standard conservative treatment of FIFO's non-LRU aging
   (cf. Grund & Reineke): precision comes only from definite outcomes,
   which is why [needs_may] forces the may domain on. *)
module Fifo_policy : POLICY = struct
  let id = Fifo
  let name = "fifo"
  let needs_may = true
  let check_assoc ~assoc:_ = ()

  (* FIFO is conservative (never evicts on a hit), so the classic
     Sleator-Tarjan argument makes it k-competitive against OPT(k) with
     additive constant k; OPT's misses are bounded by LRU(k)'s, giving
     misses_FIFO(k) <= k * misses_LRU(k) + k per set from cold. *)
  let competitiveness ~assoc = Some (assoc, assoc, assoc)
  let cset_empty ~assoc:_ = Order []

  let cset_access ~assoc cs mb =
    match cs with
    | Order l ->
        let l', hit, v = order_access ~reorder:false ~assoc l mb in
        (Order l', hit, v)
    | Tree _ -> invalid_arg "Fifo: PLRU tree state"

  let cset_age ~assoc:_ cs mb =
    match cs with
    | Order l -> order_age l mb
    | Tree _ -> invalid_arg "Fifo: PLRU tree state"

  let aset_update kind ~assoc ~hint entries mb =
    match (kind, hint) with
    | _, Hit -> entries
    | _, Miss -> shift ~cap:assoc ~below:max_int ~ins:true mb entries
    | Must, Unknown ->
        if age_in ~absent:(-1) mb entries >= 0 then entries
        else shift ~cap:assoc ~below:max_int ~ins:false mb entries
    | May, Unknown -> insert_young entries mb

  let aset_join = aset_join
  let aset_leq = aset_leq
end

(* ---------------------------------------------------------------- *)
(* PLRU: tree-based pseudo-LRU for power-of-two associativity       *)
(* ---------------------------------------------------------------- *)

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* In a [k]-way tree-PLRU set the [log2 k + 1] most recently accessed
   pairwise-distinct blocks are guaranteed resident (Reineke/Grund's
   relative-competitiveness bound, the classic aiT treatment).  The
   must domain is therefore the LRU must domain run at this reduced
   effective associativity. *)
let plru_must_assoc assoc = log2 assoc + 1

module Plru_policy : POLICY = struct
  let id = Plru
  let name = "plru"
  let needs_may = false

  let check_assoc ~assoc =
    if not (is_pow2 assoc) then
      invalid_arg
        (Printf.sprintf "Plru: associativity %d is not a power of two" assoc)

  (* The log2 k + 1 most recently used distinct blocks of a k-way
     tree-PLRU set are resident (Reineke/Grund), so every PLRU miss is
     an LRU(log2 k + 1) miss: 1-competitive, no additive constant. *)
  let competitiveness ~assoc = Some (plru_must_assoc assoc, 1, 0)

  let cset_empty ~assoc = Tree { ways = Array.make assoc (-1); bits = 0 }

  let find_way ways mb =
    let n = Array.length ways in
    let rec go w = if w >= n then None else if ways.(w) = mb then Some w else go (w + 1) in
    go 0

  (* Point every internal node on the path to way [w] away from it. *)
  let touch ~assoc bits w =
    let d = log2 assoc in
    let bits = ref bits and i = ref 1 in
    for j = d - 1 downto 0 do
      let wbit = (w lsr j) land 1 in
      (bits := if wbit = 0 then !bits lor (1 lsl !i) else !bits land lnot (1 lsl !i));
      i := (2 * !i) + wbit
    done;
    !bits

  (* Victim selection: an invalid way first (lowest index), otherwise
     follow the tree bits from the root. *)
  let victim_way ~assoc ways bits =
    let rec invalid w =
      if w >= assoc then None else if ways.(w) < 0 then Some w else invalid (w + 1)
    in
    match invalid 0 with
    | Some w -> w
    | None ->
        let d = log2 assoc in
        let i = ref 1 in
        for _ = 1 to d do
          i := (2 * !i) + ((bits lsr !i) land 1)
        done;
        !i - assoc

  let cset_access ~assoc cs mb =
    match cs with
    | Tree t -> (
        match find_way t.ways mb with
        | Some w -> (Tree { t with bits = touch ~assoc t.bits w }, true, None)
        | None ->
            let v = victim_way ~assoc t.ways t.bits in
            let victim = if t.ways.(v) < 0 then None else Some t.ways.(v) in
            let ways = Array.copy t.ways in
            ways.(v) <- mb;
            (Tree { ways; bits = touch ~assoc t.bits v }, false, victim))
    | Order _ -> invalid_arg "Plru: queue state"

  (* "Age" of a resident block: how many tree levels on its path point
     toward it — 0 means fully protected, [log2 assoc] means it is the
     next victim. *)
  let cset_age ~assoc cs mb =
    match cs with
    | Tree t -> (
        match find_way t.ways mb with
        | None -> None
        | Some w ->
            let d = log2 assoc in
            let n = ref 0 and i = ref 1 in
            for j = d - 1 downto 0 do
              let wbit = (w lsr j) land 1 in
              if (t.bits lsr !i) land 1 = wbit then incr n;
              i := (2 * !i) + wbit
            done;
            Some !n)
    | Order _ -> invalid_arg "Plru: queue state"

  (* Must: LRU domain at the reduced effective associativity.  May:
     PLRU gives no useful eviction bound (an unaccessed block can
     survive arbitrarily many misses), so the may domain only records
     which blocks were ever possibly inserted and never evicts —
     always-miss holds exactly for blocks that cannot be resident. *)
  let aset_update kind ~assoc ~hint:_ entries mb =
    match kind with
    | Must -> lru_update_set ~assoc:(plru_must_assoc assoc) entries mb
    | May -> insert_young entries mb

  let aset_join = aset_join
  let aset_leq = aset_leq
end

(* ---------------------------------------------------------------- *)
(* Dispatch                                                         *)
(* ---------------------------------------------------------------- *)

let find : id -> (module POLICY) = function
  | Lru -> (module Lru_policy)
  | Fifo -> (module Fifo_policy)
  | Plru -> (module Plru_policy)

let needs_may p =
  let (module P) = find p in
  P.needs_may

let check_assoc p ~assoc =
  let (module P) = find p in
  P.check_assoc ~assoc

let competitiveness p ~assoc =
  let (module P) = find p in
  P.competitiveness ~assoc
