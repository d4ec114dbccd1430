(* Per-set exact reachability over the VIVU-expanded graph: the
   product of the expanded CFG with the concrete cache automaton of a
   single set, collapsed Touzeau-style — all three supported policies
   are set-partitioned, so references mapping to other sets cannot
   touch the tracked state, and a block is walked through its events
   on the tracked set only.  The walk set
   explored here (DAG plus iteration edges from a cold entry) is
   exactly the one the abstract fixpoint over-approximates, which is
   what makes the exploration's verdicts definitive: a reference that
   hits in every reachable in-state hits on every walk the WCET bound
   ranges over. *)

module Vivu = Ucp_cfg.Vivu
module Program = Ucp_isa.Program
module Layout = Ucp_isa.Layout
module Config = Ucp_cache.Config
module Deadline = Ucp_util.Deadline

type event = Access of { pos : int; mb : int } | Fill of int

type r = {
  per_node : Ucp_policy.cset list array;
  visited : int;
  exhausted : bool;
  steps : int;
}

let default_budget = 32768

(* One pass over the layout's slot table, in the slot order of
   [Analysis.transfer] and the simulator: each slot's demand access,
   then its prefetch fill.  Events of sets not asked for are dropped —
   a set-partitioned policy never lets them touch the tracked state.
   A dangling prefetch fills nothing here; the analysis that produced
   the classifications has already rejected it. *)
let events layout config sets =
  let n = Program.block_count (Layout.program layout) in
  let per_set = Hashtbl.create 16 in
  List.iter (fun set -> Hashtbl.replace per_set set (Array.make n [])) sets;
  let add block mb ev =
    match Hashtbl.find_opt per_set (Config.set_of_mem_block config mb) with
    | Some per_block -> per_block.(block) <- ev :: per_block.(block)
    | None -> ()
  in
  for block = 0 to n - 1 do
    let targets = Layout.prefetch_targets layout block in
    Array.iteri
      (fun pos mb ->
        add block mb (Access { pos; mb });
        match targets.(pos) with
        | Layout.Target tb -> add block tb (Fill tb)
        | Layout.No_target | Layout.Dangling _ -> ())
      (Layout.slot_mem_blocks layout block)
  done;
  List.map
    (fun set ->
      (set, Array.map (fun evs -> Array.of_list (List.rev evs)) (Hashtbl.find per_set set)))
    sets

(* Thread one set's concrete state through a block's events.
   [on_access] sees the hit verdict of each demand access — the
   explorer replays converged in-states through this very function,
   so the reachability sweep and the verdict pass can never
   disagree. *)
let transfer (module P : Ucp_policy.POLICY) ~assoc ?on_access events cs0 =
  let cs = ref cs0 in
  for i = 0 to Array.length events - 1 do
    match events.(i) with
    | Access { pos; mb } ->
      let cs', hit, _ = P.cset_access ~assoc !cs mb in
      (match on_access with Some f -> f ~pos ~hit | None -> ());
      cs := cs'
    | Fill mb ->
      let cs', _ = P.cset_fill ~assoc !cs mb in
      cs := cs'
  done;
  !cs

let reachable ?deadline ?(budget = default_budget) ~policy ~assoc ~events vivu =
  let (module P : Ucp_policy.POLICY) = Ucp_policy.find policy in
  let n = Vivu.node_count vivu in
  let per_node : Ucp_policy.cset list array = Array.make n [] in
  let seen : (int * Ucp_policy.cset, unit) Hashtbl.t = Hashtbl.create 256 in
  let work = Queue.create () in
  let visited = ref 0 in
  let exhausted = ref false in
  let push node cs =
    if (not !exhausted) && not (Hashtbl.mem seen (node, cs)) then begin
      Hashtbl.add seen (node, cs) ();
      per_node.(node) <- cs :: per_node.(node);
      incr visited;
      if !visited > budget then exhausted := true
      else Queue.add (node, cs) work
    end
  in
  push (Vivu.entry vivu) (P.cset_empty ~assoc);
  let steps = ref 0 in
  let transfer_steps = ref 0 in
  while (not !exhausted) && not (Queue.is_empty work) do
    incr steps;
    if !steps land 255 = 0 then Deadline.check deadline;
    let node, cs = Queue.pop work in
    let block_events = events.((Vivu.node vivu node).Vivu.block) in
    transfer_steps := !transfer_steps + Array.length block_events;
    let out = transfer (module P) ~assoc block_events cs in
    List.iter (fun succ -> push succ out) (Vivu.dag_succ vivu node);
    List.iter (fun succ -> push succ out) (Vivu.iter_succ vivu node)
  done;
  (* FIFO worklist + insertion-order state lists keep the result (and
     the budget cutoff point) fully deterministic *)
  Array.iteri (fun i l -> per_node.(i) <- List.rev l) per_node;
  { per_node; visited = !visited; exhausted = !exhausted; steps = !transfer_steps }
