module Vivu = Ucp_cfg.Vivu
module Loops = Ucp_cfg.Loops
module Program = Ucp_isa.Program
module Layout = Ucp_isa.Layout
module Cacti = Ucp_energy.Cacti

type t = {
  analysis : Analysis.t;
  model : Cacti.t;
  node_cycles : int array;
  n_w : int array;
  on_path : bool array;
  path : int array;
  tau : int;
}

let cycles_of model cls =
  if Classification.is_wcet_miss cls then
    model.Cacti.hit_cycles + model.Cacti.miss_penalty
  else model.Cacti.hit_cycles

(* Longest path over the DAG with per-node weights = cycles x
   multiplicity; returns the total and the path (entry first). *)
let longest_path vivu ~node_cycles =
  let n = Vivu.node_count vivu in
  let weight id = node_cycles.(id) * Vivu.mult vivu id in
  let dist = Array.make n min_int in
  let best_pred = Array.make n (-1) in
  let entry = Vivu.entry vivu in
  Array.iter
    (fun id ->
      if id = entry then dist.(id) <- weight id
      else begin
        let best = ref min_int and arg = ref (-1) in
        List.iter
          (fun p ->
            if dist.(p) > !best || (dist.(p) = !best && p < !arg) then begin
              best := dist.(p);
              arg := p
            end)
          (Vivu.dag_pred vivu id);
        if !best > min_int then begin
          dist.(id) <- !best + weight id;
          best_pred.(id) <- !arg
        end
      end)
    (Vivu.topo vivu);
  let best_exit =
    List.fold_left
      (fun acc e ->
        match acc with
        | None -> if dist.(e) > min_int then Some e else None
        | Some b -> if dist.(e) > dist.(b) then Some e else acc)
      None (Vivu.exit_nodes vivu)
  in
  let best_exit =
    match best_exit with
    | Some e -> e
    | None -> invalid_arg "Wcet.longest_path: no exit reachable from the entry"
  in
  let rec walk id acc = if id = entry then id :: acc else walk best_pred.(id) (id :: acc) in
  (dist.(best_exit), Array.of_list (walk best_exit []))

let of_analysis analysis model =
  let vivu = Analysis.vivu analysis in
  let program = Vivu.program vivu in
  let n = Vivu.node_count vivu in
  let node_cycles =
    Array.init n (fun node_id ->
        let cycles = ref 0 in
        for pos = 0 to Program.slots program (Vivu.node vivu node_id).Vivu.block - 1 do
          cycles := !cycles + cycles_of model (Analysis.classif analysis ~node:node_id ~pos)
        done;
        !cycles)
  in
  let tau, path = longest_path vivu ~node_cycles in
  let on_path = Array.make n false in
  Array.iter (fun id -> on_path.(id) <- true) path;
  let n_w = Array.init n (fun id -> if on_path.(id) then Vivu.mult vivu id else 0) in
  { analysis; model; node_cycles; n_w; on_path; path; tau }

let analyze ?deadline ?with_may ?pinned ?policy program config =
  let layout = Layout.make program ~block_bytes:config.Ucp_cache.Config.block_bytes in
  let vivu = Vivu.expand program in
  Analysis.run ?deadline ?with_may ?pinned ?policy vivu layout config

let compute ?deadline ?with_may ?pinned ?policy program config model =
  of_analysis (analyze ?deadline ?with_may ?pinned ?policy program config) model

let path_refs t =
  let vivu = Analysis.vivu t.analysis in
  let program = Vivu.program vivu in
  let acc = ref [] in
  Array.iter
    (fun node_id ->
      let nd = Vivu.node vivu node_id in
      for pos = 0 to Program.slots program nd.Vivu.block - 1 do
        acc := (node_id, pos) :: !acc
      done)
    t.path;
  Array.of_list (List.rev !acc)

let wcet_misses t =
  let vivu = Analysis.vivu t.analysis in
  let program = Vivu.program vivu in
  let total = ref 0 in
  Array.iter
    (fun node_id ->
      let nd = Vivu.node vivu node_id in
      let n_slots = Program.slots program nd.Vivu.block in
      for pos = 0 to n_slots - 1 do
        if Classification.is_wcet_miss (Analysis.classif t.analysis ~node:node_id ~pos)
        then total := !total + t.n_w.(node_id)
      done)
    t.path;
  !total

(* Sound residual bound: every execution of a prefetch can stall its
   first later access to the target block by at most
   Λ - (minimum number of intervening slots), because each slot costs
   at least one cycle on every execution path.  The minimum is taken
   over ALL walks of the expanded graph — DAG and iteration edges alike
   — so the charge covers alternate paths and wrap-around uses across a
   loop's back edge, and it is weighted by the prefetch instance's full
   multiplicity, not just its WCET-path count.

   One search per prefetch instance, a node at a time: a node entered
   at slot distance d holds its slot p at d + p and hands its
   successors distance d + slots, so a bucket queue over entry
   distances below Λ (beyond, the shortfall is zero) settles each node
   once, at its least entry distance.  The prefetch's own node starts
   at the slot after it and stays unsettled, so a lap back into it
   reaches the slots before the prefetch — the same minimum as walking
   (node, slot) states one by one. *)
let residual_prefetch_stall t =
  let analysis = t.analysis in
  let vivu = Analysis.vivu analysis in
  let layout = Analysis.layout analysis in
  let lambda = t.model.Cacti.prefetch_latency in
  let mem_blocks node = Layout.slot_mem_blocks layout (Vivu.node vivu node).Vivu.block in
  (* [settled.(node) = search] once the current search entered [node];
     the stamps and the buckets are reused across searches *)
  let settled = Array.make (Vivu.node_count vivu) (-1) in
  let buckets = Array.make (max lambda 1) [] in
  let search = ref 0 in
  (* least distance below Λ from just after (node0, pos0) to an access
     of [target], or Λ when there is none *)
  let min_distance_to_use ~node0 ~pos0 ~target =
    incr search;
    let best = ref lambda in
    (* scan [node], whose slot p sits at distance d + p, from slot
       [from]; then queue its successors *)
    let visit node d from =
      let mbs = mem_blocks node in
      let len = Array.length mbs in
      let p = ref from in
      while !p < len && d + !p < !best do
        if mbs.(!p) = target then best := d + !p else incr p
      done;
      let d' = d + len in
      if d' < !best then begin
        (* follow BOTH edge kinds: a loop body's first later use of the
           target may sit across the wrap-around (iteration) edge back
           to the rest header, which can be strictly closer than any
           use downstream in the DAG.  Ignoring iteration edges
           over-estimated [d] and under-charged the stall (the
           fdct:k17/k18 soundness demotions). *)
        List.iter (fun s -> buckets.(d') <- s :: buckets.(d')) (Vivu.dag_succ vivu node);
        List.iter (fun s -> buckets.(d') <- s :: buckets.(d')) (Vivu.iter_succ vivu node)
      end
    in
    visit node0 (-(pos0 + 1)) (pos0 + 1);
    let d = ref 0 in
    while !d < !best do
      match buckets.(!d) with
      | [] -> incr d
      | node :: rest ->
        buckets.(!d) <- rest;
        if settled.(node) <> !search then begin
          settled.(node) <- !search;
          visit node !d 0
        end
    done;
    for i = !d to lambda - 1 do
      buckets.(i) <- []
    done;
    !best
  in
  let total = ref 0 in
  for node = 0 to Vivu.node_count vivu - 1 do
    let mult = Vivu.mult vivu node in
    if mult > 0 then
      Array.iteri
        (fun pos -> function
          | Layout.Target target ->
            let shortfall = lambda - min_distance_to_use ~node0:node ~pos0:pos ~target in
            total := !total + (shortfall * mult)
          | Layout.No_target -> ())
        (Layout.prefetch_targets layout (Vivu.node vivu node).Vivu.block)
  done;
  !total

let tau_with_residual t = t.tau + residual_prefetch_stall t

(* ------------------------------------------------------------------ *)
(* Combinatorial flow certificate for tau (the audit fast path).

   For every expanded node v, X_v bounds the node-cycle cost of any
   walk suffix starting at v (inclusive of v); for every rest header h
   with per-entry execution budget k_h = bound - 1, Lam_h >= 0 is a
   prepaid charge per potential lap.  The VIVU execution model lets a
   walk arriving at h via a DAG edge execute h at most k_h times per
   entry: once on arrival plus at most k_h - 1 laps through an
   iteration edge.  Charging (k_h - 1) * Lam_h on the entering DAG edge
   and refunding Lam_h on each iteration edge makes the potential

     M = X_current + sum over active loop entries of remaining_laps * Lam

   non-increasing along every model-allowed step, so any certificate
   satisfying

     C0  Lam_h >= 0                          for every rest header h
     C1  X_u >= c_u + X_v + entry_charge v   for every DAG edge u->v
     C2  X_u >= c_u + X_h - Lam_h            for every iter edge u->h
     C3  X_v >= c_v                          for every node v
     C4  X_entry = tau

   (entry_charge v = (k_v - 1) * Lam_v when v is a rest header, and C1
   is waived for edges into rest headers with k_v = 0, which the model
   forbids entering at all) proves tau an upper bound on every walk —
   checkable in linear passes, no LP solve.  {!Ucp_verify} re-derives
   the per-node costs c_v from the classification and model on its own
   and checks C0-C4; this constructor is untrusted. *)

type flow_cert = {
  fc_x : int array;  (** per node: inclusive suffix bound X_v *)
  fc_lam : int array;  (** per node: lap charge Lam (0 unless rest header) *)
}

(* [Some (bound - 1)] per rest-header node, [None] elsewhere. *)
let rest_budget vivu =
  let forest = Vivu.forest vivu in
  Array.init (Vivu.node_count vivu) (fun v ->
      let nd = Vivu.node vivu v in
      match List.rev nd.Vivu.ctx with
      | (l, Vivu.Rest) :: _ when forest.Loops.loops.(l).Loops.header = nd.Vivu.block
        ->
        Some (forest.Loops.loops.(l).Loops.bound - 1)
      | _ -> None)

let flow_certificate t =
  let vivu = Analysis.vivu t.analysis in
  let n = Vivu.node_count vivu in
  let c = t.node_cycles in
  let k = rest_budget vivu in
  let lam = Array.make n 0 in
  let ctx v = (Vivu.node vivu v).Vivu.ctx in
  let rec is_prefix p l =
    match (p, l) with
    | [], _ -> true
    | x :: p', y :: l' -> x = y && is_prefix p' l'
    | _ :: _, [] -> false
  in
  let rtopo =
    let topo = Vivu.topo vivu in
    Array.init n (fun i -> topo.(n - 1 - i))
  in
  let entry_charge w = match k.(w) with Some kw -> (kw - 1) * lam.(w) | None -> 0 in
  (* Lam_h = worst-case cost of one lap (header back to itself through an
     iteration edge), by a reverse-topological chain DP over the body;
     instances are processed innermost-first so inner Lam values are
     final when an outer lap crosses an inner header's entry edge. *)
  let headers =
    List.sort
      (fun a b -> compare (List.length (ctx b)) (List.length (ctx a)))
      (List.filter (fun v -> k.(v) <> None) (List.init n Fun.id))
  in
  List.iter
    (fun h ->
      let hctx = ctx h in
      let in_body v = is_prefix hctx (ctx v) in
      let lap_src = Array.make n false in
      List.iter (fun u -> lap_src.(u) <- true) (Vivu.iter_pred vivu h);
      let lap = Array.make n None in
      Array.iter
        (fun v ->
          if in_body v then begin
            let best = ref (if lap_src.(v) then Some 0 else None) in
            List.iter
              (fun w ->
                if in_body w && k.(w) <> Some 0 then
                  match lap.(w) with
                  | None -> ()
                  | Some lw ->
                    let cand = lw + entry_charge w in
                    (match !best with
                    | None -> best := Some cand
                    | Some b -> if cand > b then best := Some cand))
              (Vivu.dag_succ vivu v);
            lap.(v) <- Option.map (fun b -> c.(v) + b) !best
          end)
        rtopo;
      lam.(h) <- (match lap.(h) with Some l when l > 0 -> l | _ -> 0))
    headers;
  (* X: least solution of C1-C3 by monotone Bellman sweeps in reverse
     topological order.  DAG candidates settle in one sweep; iteration
     edges feed back one nesting level per sweep, and converge because
     Lam_h prepays the worst lap (cycle gain <= 0).  Give up (caller
     falls back to the LP) if the cap is exceeded. *)
  let x = Array.init n (fun v -> c.(v)) in
  let changed = ref true in
  let passes = ref 0 in
  let max_passes = List.length headers + 2 in
  while !changed && !passes <= max_passes do
    changed := false;
    incr passes;
    Array.iter
      (fun v ->
        let best = ref c.(v) in
        List.iter
          (fun w ->
            if k.(w) <> Some 0 then begin
              let cand = c.(v) + x.(w) + entry_charge w in
              if cand > !best then best := cand
            end)
          (Vivu.dag_succ vivu v);
        List.iter
          (fun h ->
            let cand = c.(v) + x.(h) - lam.(h) in
            if cand > !best then best := cand)
          (Vivu.iter_succ vivu v);
        if !best > x.(v) then begin
          x.(v) <- !best;
          changed := true
        end)
      rtopo
  done;
  if !changed then None else Some { fc_x = x; fc_lam = lam }
