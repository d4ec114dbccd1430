module Vivu = Ucp_cfg.Vivu
module Program = Ucp_isa.Program
module Layout = Ucp_isa.Layout
module Abstract = Ucp_cache.Abstract
module Config = Ucp_cache.Config

exception Fixpoint_diverged of { program : string; cap : int }

let () =
  Printexc.register_printer (function
    | Fixpoint_diverged { program; cap } ->
      Some
        (Printf.sprintf "Analysis.Fixpoint_diverged: %s reached no fixpoint in %d passes"
           program cap)
    | _ -> None)

type t = {
  vivu : Vivu.t;
  layout : Layout.t;
  config : Config.t;
  policy : Ucp_policy.id;
  plain : bool;
  in_must : Abstract.t array;
  in_may : Abstract.t array;
  classif : Classification.t array array;
  passes : int;
  transfers : int;
}

(* One access of [mb]: classify it from the states before it, then
   apply it.  A pinned block is a guaranteed hit in a locked way and
   leaves the replacement state alone.  Otherwise the classification
   is fed back into the abstract update as a hint: policies with
   outcome-dependent aging (FIFO) need it, LRU/PLRU ignore it. *)
let step ~with_may ~pinned must may mb =
  if pinned mb then Classification.Always_hit
  else begin
    let cls =
      if Abstract.contains must mb then Classification.Always_hit
      else if with_may && not (Abstract.contains may mb) then Classification.Always_miss
      else Classification.Not_classified
    in
    let hint =
      match cls with
      | Classification.Always_hit -> Ucp_policy.Hit
      | Classification.Always_miss -> Ucp_policy.Miss
      | Classification.Not_classified -> Ucp_policy.Unknown
    in
    Abstract.update_ip ~hint must mb;
    if with_may then Abstract.update_ip ~hint may mb;
    cls
  end

(* Transfer one node: thread both states through its slots, one step
   for each slot's demand access, whose classification [classif]
   records, then one for its prefetch's target, a fill being an access
   whose classification nobody reads (DESIGN.md §23). *)
let transfer ~vivu ~layout ~with_may ~pinned ~classif node_id (must0, may0) =
  let block = (Vivu.node vivu node_id).Vivu.block in
  let mem_blocks = Layout.slot_mem_blocks layout block in
  let targets = Layout.prefetch_targets layout block in
  (* one defensive copy per node, then destructive per-slot updates —
     the inputs stay usable as the node's recorded in-states; without
     the may domain [step] never touches [may], so it is not copied *)
  let must = Abstract.copy must0 in
  let may = if with_may then Abstract.copy may0 else may0 in
  for pos = 0 to Array.length mem_blocks - 1 do
    classif.(node_id).(pos) <- step ~with_may ~pinned must may mem_blocks.(pos);
    match targets.(pos) with
    | Layout.No_target -> ()
    | Layout.Target tb -> ignore (step ~with_may ~pinned must may tb)
  done;
  (must, may)

let run ?deadline ?(with_may = true) ?pinned ?(policy = Ucp_policy.Lru) vivu layout config =
  (* Plain analyses (no pinned/locked ways) are the only ones the
     witness-replay audit can certify; record the mode so the audit can
     report an honest [Skipped] verdict. *)
  let plain = Option.is_none pinned in
  let pinned = match pinned with Some f -> f | None -> fun _ -> false in
  (* Policies whose must domain only gains precision from definite
     misses (FIFO) force the may analysis on regardless of the caller's
     [?with_may] economy.  Always-miss classifications may then appear
     where the caller expected Not_classified; the WCET bound treats
     the two identically, so only precision improves. *)
  let with_may = with_may || Ucp_policy.needs_may policy in
  let n = Vivu.node_count vivu in
  let program = Vivu.program vivu in
  let cold_must = Abstract.empty ~policy config Abstract.Must
  and cold_may = Abstract.empty ~policy config Abstract.May in
  let classif =
    Array.init n (fun node_id ->
        let nd = Vivu.node vivu node_id in
        Array.make
          (max 1 (Program.slots program nd.Vivu.block))
          Classification.Not_classified)
  in
  let out_states : (Abstract.t * Abstract.t) option array = Array.make n None in
  let in_states : (Abstract.t * Abstract.t) option array = Array.make n None in
  let entry = Vivu.entry vivu in
  let topo = Vivu.topo vivu in
  let join_in node_id =
    let preds = Vivu.all_pred vivu node_id in
    let avail = List.filter_map (fun p -> out_states.(p)) preds in
    match (avail, node_id = entry) with
    | [], true -> Some (cold_must, cold_may)
    | [], false -> None
    | (m0, y0) :: rest, is_entry ->
      let m, y =
        List.fold_left
          (fun (m, y) (m', y') -> (Abstract.join m m', Abstract.join y y'))
          (m0, y0) rest
      in
      if is_entry then Some (Abstract.join m cold_must, Abstract.join y cold_may)
      else Some (m, y)
  in
  let transfers = ref 0 in
  let transfer node_id input =
    incr transfers;
    transfer ~vivu ~layout ~with_may ~pinned ~classif node_id input
  in
  (* Topological sweeps until one changes no out-state.  A node is
     transferred only when some predecessor's out-state changed since
     its own last transfer ([dirty]): a DAG successor then runs later in
     the same sweep, an iteration successor in the next one.  Any
     skipped transfer would have joined the very same predecessor
     states, so in-states, out-states and the sweep count are those of
     transferring every node on every sweep.  Each transfer records its
     classifications; a node's last one, from its converged in-state,
     stands. *)
  let dirty = Array.make n false in
  dirty.(entry) <- true;
  let passes = ref 0 in
  let changed = ref true in
  while !changed do
    incr passes;
    if !passes > n + 1000 then
      raise (Fixpoint_diverged { program = Program.name program; cap = n + 1000 });
    Ucp_util.Deadline.check deadline;
    changed := false;
    Ucp_obs.Trace.with_span ~name:"fixpoint-pass"
      ~args:[ ("pass", Ucp_obs.Trace.Int !passes) ] (fun () ->
    Array.iter
      (fun node_id ->
        if dirty.(node_id) then begin
          dirty.(node_id) <- false;
          match join_in node_id with
          | None -> ()
          | Some input ->
            in_states.(node_id) <- Some input;
            let output = transfer node_id input in
            let same =
              match out_states.(node_id) with
              | None -> false
              | Some (m, y) ->
                Abstract.equal m (fst output) && Abstract.equal y (snd output)
            in
            if not same then begin
              out_states.(node_id) <- Some output;
              changed := true;
              List.iter (fun s -> dirty.(s) <- true) (Vivu.dag_succ vivu node_id);
              List.iter (fun s -> dirty.(s) <- true) (Vivu.iter_succ vivu node_id)
            end
        end)
      topo)
  done;
  Ucp_obs.Metrics.add (Ucp_obs.Metrics.counter "fixpoint_iterations_total") !passes;
  (* Nodes no state reaches are classified from the cold state. *)
  let in_must = Array.make n cold_must and in_may = Array.make n cold_may in
  Array.iteri
    (fun node_id -> function
      | Some (m, y) ->
        in_must.(node_id) <- m;
        in_may.(node_id) <- y
      | None -> ignore (transfer node_id (cold_must, cold_may)))
    in_states;
  Ucp_obs.Metrics.add
    (Ucp_obs.Metrics.counter "fixpoint_node_transfers_total")
    !transfers;
  {
    vivu;
    layout;
    config;
    policy;
    plain;
    in_must;
    in_may;
    classif;
    passes = !passes;
    transfers = !transfers;
  }

let vivu t = t.vivu
let layout t = t.layout
let config t = t.config
let policy t = t.policy
let is_plain t = t.plain
let classif t ~node ~pos = t.classif.(node).(pos)
let in_must t node = t.in_must.(node)
let in_may t node = t.in_may.(node)

let slot_mem_block t ~node ~pos =
  (Layout.slot_mem_blocks t.layout (Vivu.node t.vivu node).Vivu.block).(pos)

let miss_count_bound t =
  let program = Vivu.program t.vivu in
  let total = ref 0 in
  Array.iteri
    (fun node_id per_slot ->
      let nd = Vivu.node t.vivu node_id in
      let n_slots = Program.slots program nd.Vivu.block in
      let misses = ref 0 in
      for pos = 0 to n_slots - 1 do
        if Classification.is_wcet_miss per_slot.(pos) then incr misses
      done;
      total := !total + (Vivu.mult t.vivu node_id * !misses))
    t.classif;
  !total

(* Feed externally-proven facts (the exact-exploration verdicts of
   Ucp_refine) back in as tightened classifications.  The result is a
   fresh value — the caller's analysis is untouched, so unrefined and
   refined bounds can coexist in one record.  Soundness of the
   overrides is the caller's obligation; the audit re-derives the
   exploration and cross-checks. *)
let override_classif t overrides =
  let classif = Array.map Array.copy t.classif in
  List.iter (fun (node, pos, cls) -> classif.(node).(pos) <- cls) overrides;
  { t with classif }

let classification_counts t =
  let program = Vivu.program t.vivu in
  let ah = ref 0 and am = ref 0 and nc = ref 0 in
  Array.iteri
    (fun node_id per_slot ->
      let nd = Vivu.node t.vivu node_id in
      let n_slots = Program.slots program nd.Vivu.block in
      for pos = 0 to n_slots - 1 do
        match per_slot.(pos) with
        | Classification.Always_hit -> incr ah
        | Classification.Always_miss -> incr am
        | Classification.Not_classified -> incr nc
      done)
    t.classif;
  (!ah, !am, !nc)

let fixpoint_passes t = t.passes
let node_transfers t = t.transfers
