module Program = Ucp_isa.Program
module Instr = Ucp_isa.Instr
module Vivu = Ucp_cfg.Vivu
module Abstract = Ucp_cache.Abstract
module Analysis = Ucp_wcet.Analysis
module Wcet = Ucp_wcet.Wcet
module Classification = Ucp_wcet.Classification
module Cacti = Ucp_energy.Cacti

type insertion = {
  target_uid : int;
  prefetch_uid : int;
  tau_before : int;
  tau_after : int;
  misses_before : int;
  misses_after : int;
  est_gain : int;
}

type round = {
  round_insertions : (int * int) list;
  round_tau_before : int;
  round_tau_after : int;
  round_misses_before : int;
  round_misses_after : int;
}

type result = {
  program : Program.t;
  original : Program.t;
  insertions : insertion list;
  rejected : int;
  rejected_tau : int;
  rejected_miss : int;
  rounds : int;
  tau_before : int;
  tau_after : int;
  trail : round list;
}

type candidate = {
  cand_insert_node : int;
  cand_insert_block : int;
  cand_insert_pos : int;
  cand_before_uid : int;
  cand_target_uid : int;
  cand_target_block : int;
  cand_use_position : int;
  cand_gain : int;
  cand_cost : int;
}

(* Flatten the WCET path into per-reference arrays: the ACFG view the
   reverse sweep operates on. *)
type path_view = {
  len : int;
  node : int array;
  pos : int array;
  mem_block : int array;
  uid : int array;
  is_pf : bool array;
  pf_target : int array;  (* target mem block of prefetch slots, else -1 *)
  cycles : int array;  (* per-execution WCET time of the reference *)
  cum : int array;  (* cum.(k) = sum of cycles.(0..k-1) *)
  wcet_miss : bool array;
  n_w : int array;  (* per reference: executions in the WCET scenario *)
}

let view_of_path (w : Wcet.t) =
  let analysis = w.Wcet.analysis in
  let vivu = Analysis.vivu analysis in
  let program = Vivu.program vivu in
  let refs = Wcet.path_refs w in
  let len = Array.length refs in
  let node = Array.make len 0
  and pos = Array.make len 0
  and mem_block = Array.make len 0
  and uid = Array.make len 0
  and is_pf = Array.make len false
  and pf_target = Array.make len (-1)
  and cycles = Array.make len 0
  and wcet_miss = Array.make len false
  and n_w = Array.make len 0 in
  Array.iteri
    (fun i (nid, p) ->
      node.(i) <- nid;
      pos.(i) <- p;
      let nd = Vivu.node vivu nid in
      mem_block.(i) <- Analysis.slot_mem_block analysis ~node:nid ~pos:p;
      let instr = Program.slot_instr program ~block:nd.Vivu.block ~pos:p in
      uid.(i) <- instr.Instr.uid;
      (match Analysis.prefetch_target_block analysis ~node:nid ~pos:p with
      | Some tb ->
        is_pf.(i) <- true;
        pf_target.(i) <- tb
      | None -> ());
      cycles.(i) <- w.Wcet.slot_cycles.(nid).(p);
      wcet_miss.(i) <-
        Classification.is_wcet_miss (Analysis.classif analysis ~node:nid ~pos:p);
      n_w.(i) <- w.Wcet.n_w.(nid))
    refs;
  let cum = Array.make (len + 1) 0 in
  for i = 0 to len - 1 do
    cum.(i + 1) <- cum.(i) + cycles.(i)
  done;
  { len; node; pos; mem_block; uid; is_pf; pf_target; cycles; cum; wcet_miss; n_w }

(* Occurrence index: memory block -> sorted array of path positions. *)
let occurrences view =
  let tbl = Hashtbl.create 64 in
  for i = view.len - 1 downto 0 do
    let prev = try Hashtbl.find tbl view.mem_block.(i) with Not_found -> [] in
    Hashtbl.replace tbl view.mem_block.(i) (i :: prev)
  done;
  Hashtbl.fold (fun mb lst acc -> (mb, Array.of_list lst) :: acc) tbl []
  |> List.to_seq
  |> Hashtbl.of_seq

let next_occurrence occs mb ~after =
  match Hashtbl.find_opt occs mb with
  | None -> None
  | Some arr ->
    (* first element strictly greater than [after] *)
    let lo = ref 0 and hi = ref (Array.length arr) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if arr.(mid) <= after then lo := mid + 1 else hi := mid
    done;
    if !lo < Array.length arr then Some arr.(!lo) else None

(* Sum over on-path instances of a concrete block of their WCET counts:
   the execution count a prefetch materialized in that block gets. *)
let path_count_per_block (w : Wcet.t) =
  let vivu = Analysis.vivu w.Wcet.analysis in
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun nid ->
      let b = (Vivu.node vivu nid).Vivu.block in
      let prev = try Hashtbl.find tbl b with Not_found -> 0 in
      Hashtbl.replace tbl b (prev + Vivu.mult vivu nid))
    w.Wcet.path;
  fun block -> try Hashtbl.find tbl block with Not_found -> 0

type placement = At_eviction | Latest_effective

let discover ?(placement = At_eviction) (w : Wcet.t) =
  let analysis = w.Wcet.analysis in
  let vivu = Analysis.vivu analysis in
  let program = Vivu.program vivu in
  let config = Analysis.config analysis in
  let lambda = w.Wcet.model.Cacti.prefetch_latency in
  let view = view_of_path w in
  let occs = occurrences view in
  let count_of_block = path_count_per_block w in
  let dom = Ucp_cfg.Dominators.compute program in
  (* Chain-walk must states along the path (the J_SE join of Algorithm 2
     reduces confluences to the WCET-path predecessor, so the walk is a
     chain); Property 3 exposes each reference's replacement victims. *)
  let victims = Array.make view.len [] in
  let policy = Analysis.policy analysis in
  let st = ref (Abstract.empty ~policy config Abstract.Must) in
  (* Classification hints for the chain-walked updates: the chain must
     state itself proves hits; otherwise fall back on the fixpoint
     analysis' per-slot classification.  LRU ignores hints (the walk is
     bit-identical to the seed); FIFO needs them to age soundly. *)
  let demand_hint i =
    if Abstract.contains !st view.mem_block.(i) then Ucp_policy.Hit
    else
      match Analysis.classif analysis ~node:view.node.(i) ~pos:view.pos.(i) with
      | Classification.Always_hit -> Ucp_policy.Hit
      | Classification.Always_miss -> Ucp_policy.Miss
      | Classification.Not_classified -> Ucp_policy.Unknown
  in
  let fill_hint tb =
    if Abstract.contains !st tb then Ucp_policy.Hit else Ucp_policy.Unknown
  in
  for i = 0 to view.len - 1 do
    let hint = demand_hint i in
    let demand_victims = Abstract.victims ~hint !st view.mem_block.(i) in
    st := Abstract.update ~hint !st view.mem_block.(i);
    let fill_victims =
      if view.is_pf.(i) then begin
        let hint = fill_hint view.pf_target.(i) in
        let v = Abstract.victims ~hint !st view.pf_target.(i) in
        st := Abstract.fill ~hint !st view.pf_target.(i);
        v
      end
      else []
    in
    victims.(i) <- demand_victims @ fill_victims
  done;
  (* Insertion-point selection for a victim s' replaced at [i] and next
     missing at [j].  Any point between them satisfies the paper's
     equations; we take the latest one that still hides Λ (Definition
     10), because a later point both minimizes the window in which the
     prefetched block can be replaced again and tends to sit in a block
     dominating the use (so the sound must-join keeps the block).  The
     downward scan stops as soon as the conflict count in the window
     reaches the associativity — from there on the prefetched block
     cannot survive to [j] even on the path itself. *)
  let pick_insertion ~i ~j ~victim =
    let set_of mb = Ucp_cache.Config.set_of_mem_block config mb in
    let victim_set = set_of victim in
    let assoc = config.Ucp_cache.Config.assoc in
    (* latest k with cum.(j) - cum.(k) >= lambda *)
    let lo = ref (i + 1) and hi = ref j in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if view.cum.(j) - view.cum.(mid) >= lambda then lo := mid else hi := mid - 1
    done;
    let k_max = !lo in
    if view.cum.(j) - view.cum.(k_max) < lambda then None
    else begin
      let block_j = (Vivu.node vivu view.node.(j)).Vivu.block in
      let conflicts = Hashtbl.create 8 in
      let conflict_count = ref 0 in
      let note mb =
        if mb <> victim && set_of mb = victim_set && not (Hashtbl.mem conflicts mb)
        then begin
          Hashtbl.replace conflicts mb ();
          incr conflict_count
        end
      in
      (* conflicts already inside the window [k_max, j) *)
      for t = k_max to j - 1 do
        note view.mem_block.(t);
        if view.is_pf.(t) then note view.pf_target.(t)
      done;
      let block_of k = (Vivu.node vivu view.node.(k)).Vivu.block in
      (* Walk backwards through the survivable window and keep the
         earliest dominating position: issuing as early as possible
         maximizes the real (average-case) slack, not just the
         WCET-scenario slack of Definition 10.  Once the window holds
         2Λ slots the real slack already covers the latency on any
         execution (every slot costs at least a cycle), so the scan is
         capped there — this also bounds the work per candidate. *)
      let rec scan k best =
        if k < i + 1 || !conflict_count >= assoc || j - k >= 2 * lambda then best
        else begin
          let best =
            if Ucp_cfg.Dominators.dominates dom (block_of k) block_j then Some k
            else best
          in
          if k = i + 1 then best
          else begin
            note view.mem_block.(k - 1);
            if view.is_pf.(k - 1) then note view.pf_target.(k - 1);
            if !conflict_count >= assoc then best else scan (k - 1) best
          end
        end
      in
      match placement with
      | At_eviction -> (
        (* The paper's discipline: insert right after the replacement
           (program point (r_i, r_{i+1})).  When that point does not
           dominate the use (the replacement happened inside a branch
           arm) the conservative must-join would discard the prefetched
           block at the confluence, so hoist to the latest dominating
           point that still hides Λ. *)
        let block_i1 = (Vivu.node vivu view.node.(i + 1)).Vivu.block in
        let at_eviction_ok =
          Ucp_cfg.Dominators.dominates dom block_i1 block_j
          &&
          (let saved = Hashtbl.copy conflicts and saved_count = !conflict_count in
           let rec widen k =
             if k >= i + 1 then begin
               note view.mem_block.(k);
               if view.is_pf.(k) then note view.pf_target.(k);
               widen (k - 1)
             end
           in
           widen (k_max - 1);
           let ok = !conflict_count < assoc in
           if not ok then begin
             (* restore the [k_max, j) window for the fallback scan *)
             Hashtbl.reset conflicts;
             Hashtbl.iter (fun k v -> Hashtbl.replace conflicts k v) saved;
             conflict_count := saved_count
           end;
           ok)
        in
        if at_eviction_ok then Some (i + 1) else scan k_max None)
      | Latest_effective -> (
        match scan k_max None with
        | Some k -> Some k
        | None -> if !conflict_count < assoc then Some k_max else None)
    end
  in
  let candidates = ref [] in
  let seen_use = Hashtbl.create 32 in
  (* Reverse sweep: in the accumulating list, earlier path positions end
     up later, so the final list is ordered latest-first. *)
  for i = 0 to view.len - 2 do
    List.iter
      (fun s' ->
        match next_occurrence occs s' ~after:i with
        | None -> ()
        | Some j ->
          if
            view.wcet_miss.(j) && view.n_w.(j) > 0
            && (not view.is_pf.(j)) (* Equation 9: never prefetch for a prefetch *)
            && not (Hashtbl.mem seen_use (s', j))
          then begin
            Hashtbl.replace seen_use (s', j) ();
            match pick_insertion ~i ~j ~victim:s' with
            | None -> ()
            | Some k ->
              let insert_node = view.node.(k) in
              let insert_block = (Vivu.node vivu insert_node).Vivu.block in
              let n_w_pf = count_of_block insert_block in
              (* mcost - pcost, Equations 6-7: suppressing the miss saves
                 the penalty on every WCET execution of r_j; the prefetch
                 instruction costs one issue cycle per execution of its
                 host block. *)
              let gain = (lambda * view.n_w.(j)) - n_w_pf in
              if gain > 0 then
                candidates :=
                  {
                    cand_insert_node = insert_node;
                    cand_insert_block = insert_block;
                    cand_insert_pos = view.pos.(k);
                    cand_before_uid = view.uid.(k);
                    cand_target_uid = view.uid.(j);
                    cand_target_block = s';
                    cand_use_position = j;
                    cand_gain = gain;
                    cand_cost = n_w_pf;
                  }
                  :: !candidates
          end)
      victims.(i)
  done;
  !candidates

(* An analysis with the two figures the acceptance check compares,
   each computed once: [tau] is the bound Theorem 1 protects, τ_w plus
   the conservative residual-stall charge for prefetches whose
   effectiveness window was eroded by other insertions (hits where the
   discovery-time analysis still saw misses); [misses] is the
   Condition-2 miss bound. *)
type scored = { w : Wcet.t; tau : int; misses : int }

let score w =
  { w; tau = Wcet.tau_with_residual w; misses = Analysis.miss_count_bound w.Wcet.analysis }

let optimize ?deadline ?(placement = At_eviction) ?(max_insertions = 2000)
    ?(overhead_budget = 0.05) ?pinned ?initial ?(policy = Ucp_policy.Lru) program
    config model =
  (* When the caller supplies [?initial], its policy wins — re-analyses
     must run the same domains the initial analysis did. *)
  let policy =
    match initial with
    | Some w -> Analysis.policy w.Wcet.analysis
    | None -> policy
  in
  let analyze_calls = ref 0 in
  let analyze p =
    Ucp_util.Deadline.check deadline;
    incr analyze_calls;
    score
      (Ucp_obs.Trace.with_span ~name:"optimizer-round"
         ~args:[ ("round", Ucp_obs.Trace.Int !analyze_calls) ] (fun () ->
           Wcet.compute ?deadline ~with_may:false ?pinned ~policy p config model))
  in
  let s0 = match initial with Some w -> score w | None -> analyze program in
  let w0 = s0.w in
  (* Dynamic-overhead budget: inserted prefetches may add at most this
     share of the WCET scenario's executed instructions (the paper
     reports a 1.32% maximum average increase, Figure 8).  Candidates
     are ranked by their Equation-9 gain, so the budget keeps "the most
     profitable prefetches". *)
  let total_weight =
    let vivu = Analysis.vivu w0.Wcet.analysis in
    let program0 = Vivu.program vivu in
    Array.fold_left
      (fun acc nid ->
        let nd = Vivu.node vivu nid in
        acc + (w0.Wcet.n_w.(nid) * Program.slots program0 nd.Vivu.block))
      0 w0.Wcet.path
  in
  let budget =
    ref (max 16 (int_of_float (overhead_budget *. float_of_int total_weight)))
  in
  let banned = Hashtbl.create 64 in
  let rej_tau = ref 0 and rej_miss = ref 0 in
  let accepts s s' = s'.tau <= s.tau && (s'.misses < s.misses || s'.tau < s.tau) in
  let note_rejection s s' =
    if s'.tau > s.tau then incr rej_tau;
    if s'.misses >= s.misses then incr rej_miss
  in
  let rec take n = function
    | [] -> []
    | c :: tl -> if n = 0 then [] else c :: take (n - 1) tl
  in
  (* Candidates are applied in descending (block, position) order so
     earlier insertions do not shift the coordinates of later ones. *)
  let materialize p prefix =
    let ordered =
      List.sort
        (fun a b ->
          compare
            (b.cand_insert_block, b.cand_insert_pos)
            (a.cand_insert_block, a.cand_insert_pos))
        prefix
    in
    List.fold_left
      (fun (p, uids) c ->
        let p, uid =
          Program.insert_prefetch p ~block:c.cand_insert_block ~pos:c.cand_insert_pos
            ~target_uid:c.cand_target_uid
        in
        (p, (c, uid) :: uids))
      (p, []) ordered
  in
  let rounds = ref 1 in
  (* Prefix bisection over the gain-ranked candidate list: a whole
     batch of prefetches often clears the Theorem-1 check where single
     insertions do not (each insertion relocates earlier code and can
     shift one block boundary; in bulk the gains dominate that noise).
     Try the full affordable batch, halve on failure, and ban the top
     candidate when even a single insertion fails. *)
  let rec descend p s cands size =
    if size = 0 then None
    else begin
      let prefix = take size cands in
      let p', uids = materialize p prefix in
      let s' = analyze p' in
      incr rounds;
      if accepts s s' then Some (p', s', uids)
      else begin
        note_rejection s s';
        descend p s cands (size / 2)
      end
    end
  in
  (* Walk the (gain-ranked) candidates one at a time, banning each
     failure, until one acceptance or exhaustion — used after a prefix
     bisection has already failed at size one, so re-descending per ban
     would waste log-many analyses. *)
  let rec walk_singles p s strikes = function
    | [] -> None
    | c :: rest ->
      (* the list is gain-ranked: a long run of failures predicts the
         tail will fail too, so give up after a fixed strike count *)
      if !rounds > 4000 || strikes = 0 then None
      else begin
        let p', uids = materialize p [ c ] in
        let s' = analyze p' in
        incr rounds;
        if accepts s s' then Some (p', s', uids)
        else begin
          note_rejection s s';
          Hashtbl.add banned (c.cand_before_uid, c.cand_target_uid) ();
          walk_singles p s (strikes - 1) rest
        end
      end
  in
  let rec go p s insertions rejected trail ~cached =
    if List.length insertions >= max_insertions || !rounds > 4000 then
      (p, s, insertions, rejected, trail)
    else begin
      (* discovery only depends on the current program, so it is reused
         across rounds that merely banned candidates *)
      let all = match cached with Some c -> c | None -> discover ~placement s.w in
      let cands =
        List.filter
          (fun c ->
            c.cand_cost <= !budget
            && not (Hashtbl.mem banned (c.cand_before_uid, c.cand_target_uid)))
          all
        |> List.stable_sort (fun a b -> compare b.cand_gain a.cand_gain)
      in
      (* keep the affordable prefix of the gain-ranked candidates *)
      let cands =
        let rec affordable remaining = function
          | [] -> []
          | c :: tl ->
            if c.cand_cost <= remaining then c :: affordable (remaining - c.cand_cost) tl
            else affordable remaining tl
        in
        affordable !budget cands
      in
      let accept (p', s', uids) rejected =
        List.iter (fun (c, _) -> budget := !budget - c.cand_cost) uids;
        let accepted =
          List.map
            (fun (c, uid) ->
              {
                target_uid = c.cand_target_uid;
                prefetch_uid = uid;
                tau_before = s.tau;
                tau_after = s'.tau;
                misses_before = s.misses;
                misses_after = s'.misses;
                est_gain = c.cand_gain;
              })
            uids
        in
        (* Proof obligation record for this accepted round: the audit
           layer re-derives these claims from its own analyses. *)
        let round =
          {
            round_insertions =
              List.map (fun (c, uid) -> (uid, c.cand_target_uid)) uids;
            round_tau_before = s.tau;
            round_tau_after = s'.tau;
            round_misses_before = s.misses;
            round_misses_after = s'.misses;
          }
        in
        go p' s' (accepted @ insertions) rejected (round :: trail) ~cached:None
      in
      match cands with
      | [] -> (p, s, insertions, rejected, trail)
      | top :: rest -> (
        match descend p s cands (List.length cands) with
        | Some result -> accept result rejected
        | None -> (
          (* the descent already tried (and rejected) the top candidate
             alone; ban it and walk the rest one by one *)
          Hashtbl.add banned (top.cand_before_uid, top.cand_target_uid) ();
          match walk_singles p s 30 rest with
          | Some result -> accept result (rejected + 1)
          | None -> (p, s, insertions, rejected + 1 + List.length rest, trail)))
    end
  in
  let p, s, insertions, rejected, trail = go program s0 [] 0 [] ~cached:None in
  assert (s.tau <= s0.tau);
  assert (Program.prefetch_equivalent program p);
  Ucp_obs.Metrics.add (Ucp_obs.Metrics.counter "optimizer_rounds_total") !rounds;
  {
    program = p;
    original = program;
    insertions = List.rev insertions;
    rejected;
    rejected_tau = !rej_tau;
    rejected_miss = !rej_miss;
    rounds = !rounds;
    tau_before = s0.tau;
    tau_after = s.tau;
    trail = List.rev trail;
  }
