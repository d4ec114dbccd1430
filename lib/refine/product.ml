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

(* [states] holds each distinct set state the sweep met, by interned
   id.  [reached] holds each node's in-states as a bitset over those
   ids, [Sys.int_size] ids a word: node [v]'s words are [v * width] to
   [v * width + width - 1]. *)
type r = {
  visited : int;
  exhausted : bool;
  steps : int;
  states : Ucp_policy.cset array;
  width : int;
  reached : int array;
}

let default_budget = 32768

(* One pass over the layout's slot table, in the slot order of
   [Analysis.transfer] and the simulator: each slot's demand access,
   then its prefetch fill.  Events of sets not asked for are dropped —
   a set-partitioned policy never lets them touch the tracked state. *)
let events layout config sets =
  let n = Program.block_count (Layout.program layout) in
  (* indexed by set number; [[||]] for a set not asked for *)
  let per_set = Array.make config.Config.sets [||] in
  List.iter (fun set -> per_set.(set) <- Array.make n []) sets;
  let add block mb ev =
    let per_block = per_set.(Config.set_of_mem_block config mb) in
    if Array.length per_block > 0 then per_block.(block) <- ev :: per_block.(block)
  in
  for block = 0 to n - 1 do
    let targets = Layout.prefetch_targets layout block in
    Array.iteri
      (fun pos mb ->
        add block mb (Access { pos; mb });
        match targets.(pos) with
        | Layout.Target tb -> add block tb (Fill tb)
        | Layout.No_target -> ())
      (Layout.slot_mem_blocks layout block)
  done;
  List.map
    (fun set -> (set, Array.map (fun evs -> Array.of_list (List.rev evs)) per_set.(set)))
    sets

(* Thread one set's concrete state through a block's events, one
   access each: a fill is an access whose verdict nobody reads.
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
      let cs', _, _ = P.cset_access ~assoc !cs mb in
      cs := cs'
  done;
  !cs

let word = Sys.int_size

let popcount x =
  let x = ref x and c = ref 0 in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr c
  done;
  !c

(* Set-at-a-time dataflow over (node, state) pairs.  Each distinct
   state is interned once as a dense id, each block's transfer is
   memoized per (block, id), and each node carries the bitset of ids
   reaching it ([reached]) and of those not yet pushed through it
   ([pending]; a node is [dirty] while it has any).  Topological
   sweeps expand the dirty nodes, as [Analysis.run]'s fixpoint does: a
   DAG successor's new ids are expanded later in the same sweep, an
   iteration successor's in the next one.  The reached pairs are the
   closure of the cold entry under the block transfers along DAG and
   iteration edges, whatever order they are found in: the pairs a
   breadth-first search from the same root visits.  [visited] counts
   newly set bits, so it and the budget cutoff are that search's too:
   the first time the count exceeds [budget], [budget + 1] is recorded
   and the sweep stops. *)
let reachable ?deadline ?(budget = default_budget) ~policy ~assoc ~events vivu =
  let (module P : Ucp_policy.POLICY) = Ucp_policy.find policy in
  let n = Vivu.node_count vivu in
  let ids : (Ucp_policy.cset, int) Hashtbl.t = Hashtbl.create 64 in
  let states = ref [||] in
  (* the out-states of the ids one node expands; all zero between
     expansions, and always long enough for every interned id *)
  let delta = ref [| 0 |] in
  let intern cs =
    match Hashtbl.find_opt ids cs with
    | Some id -> id
    | None ->
      let id = Hashtbl.length ids in
      if id = Array.length !states then
        states := Array.append !states (Array.make (max 16 id) cs);
      !states.(id) <- cs;
      Hashtbl.add ids cs id;
      if id / word = Array.length !delta then
        delta := Array.append !delta (Array.make (Array.length !delta) 0);
      id
  in
  (* memo.(block).(id): the out-state id of [block] from state [id], or
     -1 before its first transfer *)
  let memo = Array.make (Array.length events) [||] in
  let steps = ref 0 in
  let out block id =
    if id >= Array.length memo.(block) then
      memo.(block) <- Array.append memo.(block) (Array.make (id + 1) (-1));
    if memo.(block).(id) < 0 then begin
      steps := !steps + Array.length events.(block);
      memo.(block).(id) <- intern (transfer (module P) ~assoc events.(block) !states.(id))
    end;
    memo.(block).(id)
  in
  let width = ref 1 in
  let reached = ref (Array.make n 0) in
  let pending = ref (Array.make n 0) in
  let widen () =
    let w = !width and w' = 2 * !width in
    let grow a =
      let b = Array.make (n * w') 0 in
      for v = 0 to n - 1 do
        Array.blit a (v * w) b (v * w') w
      done;
      b
    in
    reached := grow !reached;
    pending := grow !pending;
    width := w'
  in
  let dirty = Array.make n false in
  let dirty_count = ref 0 in
  let visited = ref 0 in
  let exhausted = ref false in
  let merge v =
    let r = !reached and p = !pending and d = !delta and base = v * !width in
    for w = 0 to !width - 1 do
      let fresh = d.(w) land lnot r.(base + w) in
      if fresh <> 0 then begin
        r.(base + w) <- r.(base + w) lor fresh;
        p.(base + w) <- p.(base + w) lor fresh;
        visited := !visited + popcount fresh;
        if not dirty.(v) then begin
          dirty.(v) <- true;
          incr dirty_count
        end
      end
    done;
    if !visited > budget then begin
      visited := budget + 1;
      exhausted := true
    end
  in
  (* the cold state is id 0 *)
  ignore (intern (P.cset_empty ~assoc));
  !delta.(0) <- 1;
  merge (Vivu.entry vivu);
  !delta.(0) <- 0;
  let expand v =
    dirty.(v) <- false;
    decr dirty_count;
    let block = (Vivu.node vivu v).Vivu.block in
    let p = !pending and base = v * !width in
    if Array.length events.(block) = 0 then
      (* no event on this set: the identity *)
      for w = 0 to !width - 1 do
        !delta.(w) <- p.(base + w);
        p.(base + w) <- 0
      done
    else
      for w = 0 to !width - 1 do
        let x = ref p.(base + w) and id = ref (w * word) in
        p.(base + w) <- 0;
        while !x <> 0 do
          if !x land 1 <> 0 then begin
            let o = out block !id in
            !delta.(o / word) <- !delta.(o / word) lor (1 lsl (o mod word))
          end;
          x := !x lsr 1;
          incr id
        done
      done;
    while Hashtbl.length ids > !width * word do
      widen ()
    done;
    List.iter merge (Vivu.dag_succ vivu v);
    List.iter merge (Vivu.iter_succ vivu v);
    Array.fill !delta 0 !width 0
  in
  let topo = Vivu.topo vivu in
  let expansions = ref 0 in
  while !dirty_count > 0 && not !exhausted do
    Array.iter
      (fun v ->
        if dirty.(v) && not !exhausted then begin
          incr expansions;
          if !expansions land 255 = 0 then Deadline.check deadline;
          expand v
        end)
      topo
  done;
  {
    visited = !visited;
    exhausted = !exhausted;
    steps = !steps;
    states = Array.sub !states 0 (Hashtbl.length ids);
    width = !width;
    reached = !reached;
  }

let visited r = r.visited
let exhausted r = r.exhausted
let steps r = r.steps

let in_states r v =
  let acc = ref [] in
  for w = (v * r.width) + r.width - 1 downto v * r.width do
    for b = word - 1 downto 0 do
      if r.reached.(w) land (1 lsl b) <> 0 then
        acc := r.states.(((w - (v * r.width)) * word) + b) :: !acc
    done
  done;
  !acc
