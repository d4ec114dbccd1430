type policy = Ucp_policy.id = Lru | Fifo | Plru

type t = {
  config : Config.t;
  policy : policy;
  pol : (module Ucp_policy.POLICY);
  sets : Ucp_policy.cset array;
  (* per set: policy-specific state (recency/insertion queue for
     LRU/FIFO, way array + tree bits for PLRU) *)
}

type outcome =
  | Hit
  | Miss of int option

let create ?(policy = Lru) config =
  Ucp_policy.check_assoc policy ~assoc:config.Config.assoc;
  let pol = Ucp_policy.find policy in
  let module P = (val pol : Ucp_policy.POLICY) in
  {
    config;
    policy;
    pol;
    sets = Array.init config.Config.sets (fun _ -> P.cset_empty ~assoc:config.Config.assoc);
  }

let policy t = t.policy

let copy t =
  { t with sets = Array.map Ucp_policy.cset_copy t.sets }

let set_idx t mb = Config.set_of_mem_block t.config mb

let access t mb =
  let module P = (val t.pol : Ucp_policy.POLICY) in
  let s = set_idx t mb in
  let cs', hit, victim = P.cset_access ~assoc:t.config.Config.assoc t.sets.(s) mb in
  t.sets.(s) <- cs';
  if hit then Hit else Miss victim

let age t mb =
  let module P = (val t.pol : Ucp_policy.POLICY) in
  P.cset_age ~assoc:t.config.Config.assoc t.sets.(set_idx t mb) mb

let contents t =
  Array.to_list t.sets
  |> List.concat_map Ucp_policy.cset_blocks
  |> List.sort compare

let resident_in_set t s = Ucp_policy.cset_blocks t.sets.(s)

let config t = t.config
