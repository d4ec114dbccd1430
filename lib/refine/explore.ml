(* Focused exact classification refinement (Touzeau-style): for every
   reference the abstract must/may fixpoint left Not_classified, walk
   the per-set product automaton ({!Product}) and give a definitive
   verdict — the reference hits in every reachable in-state
   (Always_hit), misses in every one (Always_miss), or genuinely both
   outcomes occur (Genuinely_unknown).  Reclassifications are fed back
   into the analysis as tightened flow facts via
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
   reference and raises {!Unsound} on contradiction. *)

module Vivu = Ucp_cfg.Vivu
module Program = Ucp_isa.Program
module Config = Ucp_cache.Config
module Analysis = Ucp_wcet.Analysis
module Classification = Ucp_wcet.Classification
module Wcet = Ucp_wcet.Wcet
module Deadline = Ucp_util.Deadline

exception Unsound of string

type verdict = Always_hit | Always_miss | Genuinely_unknown

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
      Buffer.add_string b
        (Printf.sprintf "%d:%d:%s\n" node pos (Classification.to_string cls)))
    overrides;
  Buffer.add_string b
    (Printf.sprintf "tau %d\nmiss %d\nquant %s\nstates %d\nbudget %b\ndemoted %d\n"
       tau miss_bound
       (match quant with None -> "-" | Some q -> string_of_int q)
       states budget_hit budget_exhausted);
  Digest.to_hex (Digest.string (Buffer.contents b))

let run_plain ?deadline ?budget ~corrupt ~mode (w : Wcet.t) =
  let analysis = w.Wcet.analysis in
  let vivu = Analysis.vivu analysis in
  let layout = Analysis.layout analysis in
  let config = Analysis.config analysis in
  let policy = Analysis.policy analysis in
  let program = Vivu.program vivu in
  let (module P : Ucp_policy.POLICY) = Ucp_policy.find policy in
  let assoc = config.Config.assoc in
  let n = Vivu.node_count vivu in
  (* Focus references ((node, pos) ascending, hence deterministic),
     grouped by the cache set their memory block maps to. *)
  let by_set : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 16 in
  let focus_all = ref [] in
  for node = n - 1 downto 0 do
    let nd = Vivu.node vivu node in
    for pos = Program.slots program nd.Vivu.block - 1 downto 0 do
      let interesting =
        match Analysis.classif analysis ~node ~pos with
        | Classification.Not_classified -> true
        | Classification.Always_hit | Classification.Always_miss ->
          mode = Mode.Full
      in
      if interesting then begin
        focus_all := (node, pos) :: !focus_all;
        let set =
          Config.set_of_mem_block config
            (Analysis.slot_mem_block analysis ~node ~pos)
        in
        match Hashtbl.find_opt by_set set with
        | Some l -> l := (node, pos) :: !l
        | None -> Hashtbl.add by_set set (ref [ (node, pos) ])
      end
    done
  done;
  let sets = List.sort compare (Hashtbl.fold (fun s _ acc -> s :: acc) by_set []) in
  let states = ref 0 in
  let steps = ref 0 in
  let budget_hit = ref false in
  let budget_exhausted = ref 0 in
  let overrides = ref [] in
  List.iter
    (fun (set, events) ->
      Deadline.check deadline;
      let r = Product.reachable ?deadline ?budget ~policy ~assoc ~events vivu in
      states := !states + r.Product.visited;
      steps := !steps + r.Product.steps;
      if r.Product.exhausted then begin
        (* partial reachability proves nothing: every focus reference
           of this set degrades gracefully to Genuinely_unknown; count
           the Not_classified refs actually demoted so campaigns can
           tell "sound but imprecise" from "suspicious" geometries *)
        budget_hit := true;
        List.iter
          (fun (node, pos) ->
            if
              Analysis.classif analysis ~node ~pos
              = Classification.Not_classified
            then incr budget_exhausted)
          !(Hashtbl.find by_set set)
      end
      else begin
        (* regroup this set's focus refs per expanded node *)
        let per_node : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun (node, pos) ->
            match Hashtbl.find_opt per_node node with
            | Some l -> l := pos :: !l
            | None -> Hashtbl.add per_node node (ref [ pos ]))
          !(Hashtbl.find by_set set);
        Hashtbl.iter
          (fun node poss ->
            let poss = List.sort compare !poss in
            let block_events = events.((Vivu.node vivu node).Vivu.block) in
            match r.Product.per_node.(node) with
            | [] ->
              (* node instance unreachable in the product — no walk
                 executes it, nothing to conclude or contradict *)
              ()
            | in_states ->
              let all_hit = Hashtbl.create 8 and all_miss = Hashtbl.create 8 in
              List.iter
                (fun p ->
                  Hashtbl.replace all_hit p true;
                  Hashtbl.replace all_miss p true)
                poss;
              List.iter
                (fun cs ->
                  steps := !steps + Array.length block_events;
                  ignore
                    (Product.transfer (module P) ~assoc
                       ~on_access:(fun ~pos ~hit ->
                         if Hashtbl.mem all_hit pos then
                           if hit then Hashtbl.replace all_miss pos false
                           else Hashtbl.replace all_hit pos false)
                       block_events cs))
                in_states;
              List.iter
                (fun pos ->
                  let v =
                    if Hashtbl.find all_hit pos then Always_hit
                    else if Hashtbl.find all_miss pos then Always_miss
                    else Genuinely_unknown
                  in
                  match (Analysis.classif analysis ~node ~pos, v) with
                  | Classification.Not_classified, Always_hit ->
                    overrides :=
                      (node, pos, Classification.Always_hit) :: !overrides
                  | Classification.Not_classified, Always_miss ->
                    overrides :=
                      (node, pos, Classification.Always_miss) :: !overrides
                  | Classification.Not_classified, Genuinely_unknown -> ()
                  | Classification.Always_hit, Always_hit
                  | Classification.Always_miss, Always_miss ->
                    ()
                  | Classification.Always_hit, _ ->
                    raise
                      (Unsound
                         (Printf.sprintf
                            "abstract Always_hit at (%d,%d) under %s is not an \
                             exploration all-hit"
                            node pos
                            (Ucp_policy.to_string policy)))
                  | Classification.Always_miss, _ ->
                    raise
                      (Unsound
                         (Printf.sprintf
                            "abstract Always_miss at (%d,%d) under %s is not \
                             an exploration all-miss"
                            node pos
                            (Ucp_policy.to_string policy))))
                poss)
          per_node
      end)
    (Product.events layout config sets);
  let overrides = List.sort compare !overrides in
  (* corrupt-refine fault: claim Always_hit for the first focus
     reference that is NOT a proven all-hit — an unsound tightening the
     audit's digest recomputation must catch *)
  let overrides =
    if not corrupt then overrides
    else begin
      let ov = Hashtbl.create 16 in
      List.iter (fun (nd, p, c) -> Hashtbl.replace ov (nd, p) c) overrides;
      let final (nd, p) =
        match Hashtbl.find_opt ov (nd, p) with
        | Some c -> c
        | None -> Analysis.classif analysis ~node:nd ~pos:p
      in
      match
        List.find_opt (fun rp -> final rp <> Classification.Always_hit) !focus_all
      with
      | None -> overrides
      | Some (nd, p) ->
        Hashtbl.replace ov (nd, p) Classification.Always_hit;
        Hashtbl.fold (fun (nd, p) c acc -> (nd, p, c) :: acc) ov []
        |> List.sort compare
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
  Ucp_obs.Metrics.add
    (Ucp_obs.Metrics.counter "refine_refs_total")
    (List.length !focus_all);
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
      (* pinned ways / hardware prefetchers change the concrete
         semantics the product models; refinement honestly declines
         rather than silently assuming plain transfer *)
      None
    else
      Ucp_obs.Trace.with_span ~name:"refine"
        ~args:[ ("mode", Ucp_obs.Trace.Str (Mode.to_string mode)) ]
        (fun () -> Some (run_plain ?deadline ?budget ~corrupt ~mode w))
