(* Focused exact classification refinement (Touzeau-style): for every
   reference the abstract must/may fixpoint left Not_classified, walk
   the per-set product automaton ({!Product}) and give a definitive
   verdict — the reference hits in every reachable in-state
   (Always_hit), misses in every one (Always_miss), or genuinely both
   outcomes occur (it stays Not_classified).  Reclassifications are
   fed back into the analysis as tightened flow facts via
   [Analysis.override_classif], and the WCET is re-derived so the IPET
   ILP drops the reclaimed miss terms.

   Soundness relies on two facts.  First, the product explores exactly
   the walk set (DAG + iteration edges from a cold entry) that the
   abstract fixpoint over-approximates, so "all reachable in-states
   hit" really covers every execution the WCET bound ranges over.
   Second, the verdict pass replays in-states through the reachability
   sweep's own transfer over the same per-set events, built once from
   the layout's slot table in the simulator's slot order, so it cannot
   drift from either.  The converse containment gives a free
   self-test: an abstract Always_hit (resp. Always_miss) must be an
   exploration all-hit (all-miss) — [Mode.Full] checks this for every
   reference and raises {!Unsound} on contradiction.

   The verdict pass walks each set's focus references, kept in
   ascending (node, pos) order, in runs of one node.  Three flag
   arrays indexed by slot, allocated once per call, mark the run's
   slots and record whether every replayed in-state hit, or missed,
   there; the run is judged once all of its node's in-states are
   replayed.  Sets are judged in ascending order, so the first
   contradiction in (set, node, pos) order is the one {!Unsound}
   names.  The overrides are sorted by (node, pos) before the digest
   reads them. *)

module Vivu = Ucp_cfg.Vivu
module Layout = Ucp_isa.Layout
module Config = Ucp_cache.Config
module Analysis = Ucp_wcet.Analysis
module Classification = Ucp_wcet.Classification
module Wcet = Ucp_wcet.Wcet
module Deadline = Ucp_util.Deadline

exception Unsound of string

type summary = {
  s_mode : Mode.t;
  s_nc_before : int;
  s_nc_after : int;
  s_ah_gained : int;
  s_am_gained : int;
  s_tau : int;
  s_miss_bound : int;
  s_quant : int option;
  s_states : int;
  s_budget_hit : bool;
  s_budget_exhausted : int;
  s_digest : string;
}

(* Deterministic digest over everything the refinement changed or
   concluded: the audit recomputes the exploration from the same
   inputs and compares digests, so any tampering with the reclassified
   facts (or the bounds derived from them) is caught byte-for-byte. *)
let digest ~mode ~policy ~overrides ~tau ~miss_bound ~quant ~states ~budget_hit
    ~budget_exhausted =
  let b = Buffer.create 256 in
  Buffer.add_string b "ucp-refine-v2\n";
  Buffer.add_string b (Mode.to_string mode);
  Buffer.add_char b '\n';
  Buffer.add_string b (Ucp_policy.to_string policy);
  Buffer.add_char b '\n';
  List.iter
    (fun (node, pos, cls) ->
      Buffer.add_string b (string_of_int node);
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int pos);
      Buffer.add_char b ':';
      Buffer.add_string b (Classification.to_string cls);
      Buffer.add_char b '\n')
    overrides;
  Printf.bprintf b "tau %d\nmiss %d\nquant %s\nstates %d\nbudget %b\ndemoted %d\n" tau
    miss_bound
    (match quant with None -> "-" | Some q -> string_of_int q)
    states budget_hit budget_exhausted;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* (node, pos) order; no slot is overridden twice *)
let by_slot (n1, p1, _) (n2, p2, _) =
  let c = Int.compare n1 n2 in
  if c <> 0 then c else Int.compare p1 p2

let run_plain ?deadline ?budget ~corrupt ~mode (w : Wcet.t) =
  let analysis = w.Wcet.analysis in
  let vivu = Analysis.vivu analysis in
  let layout = Analysis.layout analysis in
  let config = Analysis.config analysis in
  let policy = Analysis.policy analysis in
  let (module P : Ucp_policy.POLICY) = Ucp_policy.find policy in
  let assoc = config.Config.assoc in
  let n = Vivu.node_count vivu in
  let classif node pos = Analysis.classif analysis ~node ~pos in
  let is_focus node pos =
    match classif node pos with
    | Classification.Not_classified -> true
    | Classification.Always_hit | Classification.Always_miss -> mode = Mode.Full
  in
  (* Focus references by the cache set their memory block maps to,
     each set's list in ascending (node, pos) order. *)
  let by_set = Array.make config.Config.sets [] in
  let n_focus = ref 0 and max_slots = ref 0 in
  for node = n - 1 downto 0 do
    let mem_blocks = Layout.slot_mem_blocks layout (Vivu.node vivu node).Vivu.block in
    max_slots := max !max_slots (Array.length mem_blocks);
    for pos = Array.length mem_blocks - 1 downto 0 do
      if is_focus node pos then begin
        incr n_focus;
        let set = Config.set_of_mem_block config mem_blocks.(pos) in
        by_set.(set) <- (node, pos) :: by_set.(set)
      end
    done
  done;
  let sets = ref [] in
  for set = config.Config.sets - 1 downto 0 do
    match by_set.(set) with [] -> () | _ :: _ -> sets := set :: !sets
  done;
  (* The verdict pass's flags, indexed by slot and reset per node:
     [focus] marks the node's focus slots on the set being judged,
     [all_hit] ([all_miss]) whether every in-state replayed so far hit
     (missed) there. *)
  let focus = Array.make !max_slots false in
  let all_hit = Array.make !max_slots false in
  let all_miss = Array.make !max_slots false in
  let on_access ~pos ~hit =
    if focus.(pos) then if hit then all_miss.(pos) <- false else all_hit.(pos) <- false
  in
  let states = ref 0 in
  let steps = ref 0 in
  let budget_hit = ref false in
  let budget_exhausted = ref 0 in
  let overrides = ref [] in
  (* Every in-state replays every focus slot's access, so at most one
     of its flags survives. *)
  let judge node pos =
    match classif node pos with
    | Classification.Not_classified ->
      if all_hit.(pos) then overrides := (node, pos, Classification.Always_hit) :: !overrides
      else if all_miss.(pos) then
        overrides := (node, pos, Classification.Always_miss) :: !overrides
    | Classification.Always_hit ->
      if not all_hit.(pos) then
        raise
          (Unsound
             (Printf.sprintf
                "abstract Always_hit at (%d,%d) under %s is not an exploration all-hit"
                node pos (Ucp_policy.to_string policy)))
    | Classification.Always_miss ->
      if not all_miss.(pos) then
        raise
          (Unsound
             (Printf.sprintf
                "abstract Always_miss at (%d,%d) under %s is not an exploration all-miss"
                node pos (Ucp_policy.to_string policy)))
  in
  (* [f pos] for each reference of [node] at the head of [refs]; the
     references after them *)
  let rec each_of node f = function
    | (nd, pos) :: tl when Int.equal nd node ->
      f pos;
      each_of node f tl
    | rest -> rest
  in
  (* One set's focus references, a run of one node at a time: replay
     the node's in-states through the reachability sweep's transfer,
     then judge the run. *)
  let rec verdicts r events = function
    | [] -> ()
    | (node, _) :: _ as refs ->
      let rest =
        each_of node
          (fun pos ->
            focus.(pos) <- true;
            all_hit.(pos) <- true;
            all_miss.(pos) <- true)
          refs
      in
      (match Product.in_states r node with
       | [] ->
         (* node instance unreachable in the product — no walk
            executes it, nothing to conclude or contradict *)
         ()
       | in_states ->
         let block_events = events.((Vivu.node vivu node).Vivu.block) in
         List.iter
           (fun cs ->
             steps := !steps + Array.length block_events;
             ignore (Product.transfer (module P) ~assoc ~on_access block_events cs))
           in_states;
         ignore (each_of node (judge node) refs));
      ignore (each_of node (fun pos -> focus.(pos) <- false) refs);
      verdicts r events rest
  in
  List.iter
    (fun (set, events) ->
      Deadline.check deadline;
      let r = Product.reachable ?deadline ?budget ~policy ~assoc ~events vivu in
      states := !states + Product.visited r;
      steps := !steps + Product.steps r;
      if Product.exhausted r then begin
        (* partial reachability proves nothing: every focus reference
           of this set degrades gracefully to "genuinely unknown"; count
           the Not_classified refs actually demoted so campaigns can
           tell "sound but imprecise" from "suspicious" geometries *)
        budget_hit := true;
        List.iter
          (fun (node, pos) ->
            match classif node pos with
            | Classification.Not_classified -> incr budget_exhausted
            | Classification.Always_hit | Classification.Always_miss -> ())
          by_set.(set)
      end
      else verdicts r events by_set.(set))
    (Product.events layout config !sets);
  let overrides = List.sort by_slot !overrides in
  (* corrupt-refine fault: claim Always_hit for the first focus
     reference that is NOT a proven all-hit — an unsound tightening the
     audit's digest recomputation must catch *)
  let overrides =
    if not corrupt then overrides
    else begin
      let proven = Analysis.override_classif analysis overrides in
      match
        List.find_opt
          (fun (node, pos) -> Analysis.classif proven ~node ~pos <> Classification.Always_hit)
          (List.sort compare (List.concat (Array.to_list by_set)))
      with
      | None -> overrides
      | Some (nd, p) ->
        List.sort by_slot
          ((nd, p, Classification.Always_hit)
          :: List.filter (fun (nd', p', _) -> nd' <> nd || p' <> p) overrides)
    end
  in
  let refined_analysis = Analysis.override_classif analysis overrides in
  let refined_w = Wcet.of_analysis refined_analysis w.Wcet.model in
  let ah0, am0, nc0 = Analysis.classification_counts analysis in
  let ah1, am1, nc1 = Analysis.classification_counts refined_analysis in
  let quant = Quantitative.miss_bound ?deadline analysis in
  let tau = Wcet.tau_with_residual refined_w in
  let miss_bound = Analysis.miss_count_bound refined_analysis in
  let dg =
    digest ~mode ~policy ~overrides ~tau ~miss_bound ~quant ~states:!states
      ~budget_hit:!budget_hit ~budget_exhausted:!budget_exhausted
  in
  Ucp_obs.Metrics.add (Ucp_obs.Metrics.counter "refine_refs_total") !n_focus;
  Ucp_obs.Metrics.add
    (Ucp_obs.Metrics.counter "refine_reclassified_total")
    (List.length overrides);
  Ucp_obs.Metrics.add (Ucp_obs.Metrics.counter "refine_states_total") !states;
  Ucp_obs.Metrics.add
    (Ucp_obs.Metrics.counter "refine_transfer_steps_total")
    !steps;
  if !budget_hit then
    Ucp_obs.Metrics.incr (Ucp_obs.Metrics.counter "refine_budget_exhausted_total");
  let summary =
    {
      s_mode = mode;
      s_nc_before = nc0;
      s_nc_after = nc1;
      s_ah_gained = ah1 - ah0;
      s_am_gained = am1 - am0;
      s_tau = tau;
      s_miss_bound = miss_bound;
      s_quant = quant;
      s_states = !states;
      s_budget_hit = !budget_hit;
      s_budget_exhausted = !budget_exhausted;
      s_digest = dg;
    }
  in
  (summary, refined_w)

let run ?deadline ?budget ?(corrupt = false) ~mode (w : Wcet.t) =
  match (mode : Mode.t) with
  | Mode.Off -> None
  | Mode.Nc | Mode.Full ->
    if not (Analysis.is_plain w.Wcet.analysis) then
      (* pinned ways change the concrete semantics the product
         models; refinement honestly declines rather than silently
         assuming plain transfer *)
      None
    else
      Ucp_obs.Trace.with_span ~name:"refine"
        ~args:[ ("mode", Ucp_obs.Trace.Str (Mode.to_string mode)) ]
        (fun () -> Some (run_plain ?deadline ?budget ~corrupt ~mode w))
