type kind = Ucp_policy.kind = Must | May

(* One list of (memory block, age bound) pairs per cache set, sorted by
   block; ages range over [0, assoc) and entries reaching the policy's
   eviction threshold leave the state.  A transfer replaces only the
   list of the set it touches, and the per-set transfers and joins of
   Ucp_policy hand back their input when nothing changes, so states
   derived from one another share most sets physically; [join], [leq]
   and [equal] skip those. *)
type t = {
  config : Config.t;
  kind : kind;
  policy : Ucp_policy.id;
  pol : (module Ucp_policy.POLICY);
  sets : Ucp_policy.aset array;
}

let empty ?(policy = Ucp_policy.Lru) config kind =
  Ucp_policy.check_assoc policy ~assoc:config.Config.assoc;
  {
    config;
    kind;
    policy;
    pol = Ucp_policy.find policy;
    sets = Array.make config.Config.sets [];
  }

let kind t = t.kind
let config t = t.config
let policy t = t.policy
let set_idx t mb = Config.set_of_mem_block t.config mb

(* Destructive variants for the analysis hot loop: [copy] takes the one
   defensive copy of the set array, then [update_ip] replaces set lists
   in it through a whole node transfer. *)
let copy t = { t with sets = Array.copy t.sets }

let update_ip ?(hint = Ucp_policy.Unknown) t mb =
  let module P = (val t.pol : Ucp_policy.POLICY) in
  let s = set_idx t mb in
  let before = t.sets.(s) in
  let after = P.aset_update t.kind ~assoc:t.config.Config.assoc ~hint before mb in
  if after != before then t.sets.(s) <- after

let update ?hint t mb =
  let t = copy t in
  update_ip ?hint t mb;
  t

let check_compatible op a b =
  if a.kind <> b.kind then invalid_arg (Printf.sprintf "Abstract.%s: kind mismatch" op);
  if not (a.config == b.config || Config.equal a.config b.config) then
    invalid_arg (Printf.sprintf "Abstract.%s: configuration mismatch" op);
  if a.policy <> b.policy then
    invalid_arg (Printf.sprintf "Abstract.%s: policy mismatch" op)

(* [a] itself when every set's join is [a]'s own list; otherwise one
   copy of [a]'s set array, taken at the first set whose join differs.
   Physically equal sets are their own join. *)
let join a b =
  check_compatible "join" a b;
  let module P = (val a.pol : Ucp_policy.POLICY) in
  let sets = ref a.sets in
  for i = 0 to Array.length a.sets - 1 do
    let x = a.sets.(i) and y = b.sets.(i) in
    if x != y then begin
      let j = P.aset_join a.kind x y in
      if j != x then begin
        if !sets == a.sets then sets := Array.copy a.sets;
        !sets.(i) <- j
      end
    end
  done;
  if !sets == a.sets then a else { a with sets = !sets }

let leq a b =
  check_compatible "leq" a b;
  let module P = (val a.pol : Ucp_policy.POLICY) in
  Array.for_all2 (fun x y -> x == y || P.aset_leq a.kind x y) a.sets b.sets

let rec age_in (mb : int) : Ucp_policy.aset -> int option = function
  | [] -> None
  | (x, a) :: tl -> if x < mb then age_in mb tl else if x = mb then Some a else None

let rec mem (mb : int) : Ucp_policy.aset -> bool = function
  | [] -> false
  | (x, _) :: tl -> if x < mb then mem mb tl else x = mb

let age t mb = age_in mb t.sets.(set_idx t mb)
let contains t mb = mem mb t.sets.(set_idx t mb)
let blocks t = Array.to_list t.sets |> List.concat |> List.map fst |> List.sort compare

(* The entries of [before] other than [mb] that [after] lacks, in block
   order; both lists are sorted by block. *)
let rec removed (mb : int) (before : Ucp_policy.aset) (after : Ucp_policy.aset) =
  match (before, after) with
  | [], _ -> []
  | (x, _) :: tl, [] -> if x = mb then removed mb tl [] else x :: removed mb tl []
  | (x, _) :: tl, (y, _) :: tl' ->
    if x > y then removed mb before tl'
    else if x = y then removed mb tl tl'
    else if x = mb then removed mb tl after
    else x :: removed mb tl after

let transfer_ip ?hint t mb =
  let s = set_idx t mb in
  let before = t.sets.(s) in
  update_ip ?hint t mb;
  let after = t.sets.(s) in
  if after == before then [] else removed mb before after

let rec set_equal (l1 : Ucp_policy.aset) l2 =
  l1 == l2
  ||
  match (l1, l2) with
  | (x, a) :: t1, (y, b) :: t2 -> x = y && a = b && set_equal t1 t2
  | _ -> false

let equal a b =
  a.kind = b.kind && a.policy = b.policy
  && (a.config == b.config || Config.equal a.config b.config)
  && (a.sets == b.sets || Array.for_all2 set_equal a.sets b.sets)

let pp ppf t =
  Format.fprintf ppf "@[<v>%s cache (%s):@,"
    (match t.kind with Must -> "must" | May -> "may")
    (Ucp_policy.to_string t.policy);
  Array.iteri
    (fun i entries ->
      if entries <> [] then begin
        Format.fprintf ppf "  set %d:" i;
        List.iter (fun (mb, a) -> Format.fprintf ppf " s%d@%d" mb a) entries;
        Format.pp_print_cut ppf ()
      end)
    t.sets;
  Format.fprintf ppf "@]"
