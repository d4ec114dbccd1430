(* The traced evaluation of one use case.

   [Experiments.run_case ~memo ~refine:Nc] is re-composed call for call
   from each layer's public functions (the memoized original analysis,
   then [Pipeline.prepare] and [Pipeline.finish_audit]), with a span
   around every layer call, so per-layer time and work are measured
   where the work happens without touching the library.  The records it
   builds must be byte-identical to run_case's: the benchmark checks
   the traced record-stream digest against the untraced one.

   Bench spans never nest (each wraps one library call), so a layer's
   self time is the summed duration of its spans.  Library spans inside
   them are attributed by name: "optimizer-round" (the optimizer's
   re-analyses) and "refine" inside an audit (the audit's recomputation
   of the exact refinement). *)

module Trace = Ucp_obs.Trace
module Metrics = Ucp_obs.Metrics
module Experiments = Ucp_core.Experiments
module Pipeline = Ucp_core.Pipeline
module Analysis = Ucp_wcet.Analysis
module Wcet = Ucp_wcet.Wcet
module Explore = Ucp_refine.Explore
module Simulator = Ucp_sim.Simulator
module Account = Ucp_energy.Account
module Optimizer = Ucp_prefetch.Optimizer

let layers =
  [
    "isa.layout";
    "cfg.vivu";
    "wcet.analysis";
    "wcet.path";
    "prefetch.optimizer";
    "refine.explore";
    "sim.simulator";
    "energy";
    "verify.audit";
  ]

(* [Pipeline.prepare]'s default simulation seed, which run_case uses *)
let sim_seed = 42

type t = {
  self_s : (string, float) Hashtbl.t;
  mutable vivu_nodes : int;
  mutable analysis_calls : int;
  mutable analysis_passes : int;
  mutable opt_reanalysis_s : float;
  mutable opt_rounds : int;
  mutable opt_passes : int;
  mutable opt_insertions : int;
  mutable opt_rejected : int;
  mutable refine_calls : int;
  mutable refine_states : int;
  mutable refine_budget_exhausted : int;
  mutable nc_before : int;
  mutable nc_after : int;
  mutable sim_calls : int;
  mutable sim_instructions : int;
  mutable audit_obligations : int;
  mutable audit_refine_s : float;
  mutable audit_fastpath : int;
  mutable audit_slowpath : int;
  mutable spans_dropped : int;
}

let create () =
  let self_s = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace self_s l 0.0) layers;
  {
    self_s;
    vivu_nodes = 0;
    analysis_calls = 0;
    analysis_passes = 0;
    opt_reanalysis_s = 0.0;
    opt_rounds = 0;
    opt_passes = 0;
    opt_insertions = 0;
    opt_rejected = 0;
    refine_calls = 0;
    refine_states = 0;
    refine_budget_exhausted = 0;
    nc_before = 0;
    nc_after = 0;
    sim_calls = 0;
    sim_instructions = 0;
    audit_obligations = 0;
    audit_refine_s = 0.0;
    audit_fastpath = 0;
    audit_slowpath = 0;
    spans_dropped = 0;
  }

(* an existing registry counter; 0 until the library first bumps it *)
let counter name =
  match Metrics.find name with Some (Metrics.Counter n) -> n | Some _ | None -> 0

let span name f = Trace.with_span ~name f

(* Wcet.analyze, one layer at a time *)
let analysis t (c : Experiments.case) program =
  let layout =
    span "isa.layout" (fun () ->
        Ucp_isa.Layout.make program
          ~block_bytes:c.case_config.Ucp_cache.Config.block_bytes)
  in
  let vivu = span "cfg.vivu" (fun () -> Ucp_cfg.Vivu.expand program) in
  let a =
    span "wcet.analysis" (fun () ->
        Analysis.run ~with_may:true ~policy:c.case_policy vivu layout c.case_config)
  in
  t.vivu_nodes <- t.vivu_nodes + Ucp_cfg.Vivu.node_count vivu;
  t.analysis_calls <- t.analysis_calls + 1;
  t.analysis_passes <- t.analysis_passes + Analysis.fixpoint_passes a;
  a

(* Pipeline.measure on a computed WCET *)
let measurement t (c : Experiments.case) ~model program w =
  let refined = span "refine.explore" (fun () -> Explore.run ~mode:Ucp_refine.Mode.Nc w) in
  let stats =
    span "sim.simulator" (fun () ->
        Simulator.run ~seed:sim_seed ~policy:c.case_policy program c.case_config model)
  in
  let breakdown = span "energy" (fun () -> Account.energy model stats.Simulator.counts) in
  let tau, miss_bound, (ah, am, nc) =
    span "wcet.path" (fun () ->
        ( Wcet.tau_with_residual w,
          Analysis.miss_count_bound w.Wcet.analysis,
          Analysis.classification_counts w.Wcet.analysis ))
  in
  Option.iter
    (fun ((s : Explore.summary), _) ->
      t.refine_calls <- t.refine_calls + 1;
      t.refine_states <- t.refine_states + s.s_states;
      t.refine_budget_exhausted <- t.refine_budget_exhausted + s.s_budget_exhausted;
      t.nc_before <- t.nc_before + s.s_nc_before;
      t.nc_after <- t.nc_after + s.s_nc_after)
    refined;
  t.sim_calls <- t.sim_calls + 1;
  t.sim_instructions <- t.sim_instructions + stats.Simulator.executed;
  {
    Pipeline.tau;
    acet = Simulator.acet stats;
    energy_pj = breakdown.Account.total_pj;
    miss_rate = stats.Simulator.miss_rate;
    executed = stats.Simulator.executed;
    demand_misses = stats.Simulator.counts.Account.misses;
    wcet_miss_bound = miss_bound;
    ah;
    am;
    nc;
    refine = Option.map fst refined;
  }

let eval t memo ~model ~audit (c : Experiments.case) =
  let program = c.case_program in
  let key = (c.case_program_name, c.case_config_id, c.case_policy) in
  let a0 =
    match Hashtbl.find_opt memo key with
    | Some a -> a
    | None ->
      let a = analysis t c program in
      Hashtbl.add memo key a;
      a
  in
  let w0 = span "wcet.path" (fun () -> Wcet.of_analysis a0 model) in
  let passes0 = counter "fixpoint_iterations_total" in
  let result =
    span "prefetch.optimizer" (fun () ->
        Optimizer.optimize ~initial:w0 program c.case_config model)
  in
  t.opt_passes <- t.opt_passes + counter "fixpoint_iterations_total" - passes0;
  t.opt_rounds <- t.opt_rounds + result.Optimizer.rounds;
  t.opt_insertions <- t.opt_insertions + List.length result.Optimizer.insertions;
  t.opt_rejected <- t.opt_rejected + result.Optimizer.rejected;
  let optimized_program = result.Optimizer.program in
  let a1 = analysis t c optimized_program in
  let w1 = span "wcet.path" (fun () -> Wcet.of_analysis a1 model) in
  let original = measurement t c ~model program w0 in
  let optimized = measurement t c ~model optimized_program w1 in
  let audit =
    if not audit then Pipeline.Not_audited
    else begin
      let obligations = counter "audit_obligations_total"
      and fast = counter "audit_ipet_fastpath_total"
      and slow = counter "audit_ipet_slowpath_total" in
      let verdict =
        span "verify.audit" (fun () ->
            Ucp_verify.audit_case ~seed:sim_seed
              ~refine:(Ucp_refine.Mode.Nc, original.Pipeline.refine, optimized.Pipeline.refine)
              ~original:w0 ~optimized:w1 result)
      in
      t.audit_obligations <-
        t.audit_obligations + counter "audit_obligations_total" - obligations;
      t.audit_fastpath <- t.audit_fastpath + counter "audit_ipet_fastpath_total" - fast;
      t.audit_slowpath <- t.audit_slowpath + counter "audit_ipet_slowpath_total" - slow;
      match verdict with
      | Ok (Ucp_verify.Certified { checks; seconds }) -> Pipeline.Audited { checks; seconds }
      | Ok (Ucp_verify.Skipped { reason }) -> Pipeline.Audit_skipped reason
      | Error msg -> failwith ("audit: " ^ msg)
    end
  in
  {
    Experiments.program_name = c.case_program_name;
    config_id = c.case_config_id;
    config = c.case_config;
    tech = c.case_tech;
    policy = c.case_policy;
    original;
    optimized;
    prefetches = List.length result.Optimizer.insertions;
    rejected = result.Optimizer.rejected;
    audit;
  }

let collect t =
  let spans = Trace.spans () in
  let audits = List.filter (fun s -> s.Trace.span_name = "verify.audit") spans in
  let inside (outer : Trace.span) (s : Trace.span) =
    s.ts_us >= outer.ts_us && s.ts_us +. s.dur_us <= outer.ts_us +. outer.dur_us
  in
  List.iter
    (fun (s : Trace.span) ->
      let d = s.dur_us /. 1e6 in
      match Hashtbl.find_opt t.self_s s.span_name with
      | Some acc -> Hashtbl.replace t.self_s s.span_name (acc +. d)
      | None ->
        if s.span_name = "optimizer-round" then
          t.opt_reanalysis_s <- t.opt_reanalysis_s +. d
        else if s.span_name = "refine" && List.exists (fun a -> inside a s) audits then
          t.audit_refine_s <- t.audit_refine_s +. d)
    spans;
  t.spans_dropped <- t.spans_dropped + Trace.dropped ()

(* One traced case.  The trace restarts per case, so its ring holds one
   case's spans at a time. *)
let traced t memo ~model ~audit c =
  Trace.start ();
  Fun.protect
    ~finally:(fun () ->
      Trace.stop ();
      collect t)
    (fun () -> eval t memo ~model ~audit c)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* per-layer metrics of a traced pass of [wall] seconds *)
let metrics t ~wall =
  let self l = Hashtbl.find t.self_s l in
  let sim_s = self "sim.simulator" in
  let layer_s = List.fold_left (fun acc l -> acc +. self l) 0.0 layers in
  [
    ("isa.layout.self_s", self "isa.layout");
    ("cfg.vivu.self_s", self "cfg.vivu");
    ("cfg.vivu.nodes", float_of_int t.vivu_nodes);
    ("wcet.analysis.self_s", self "wcet.analysis");
    ("wcet.analysis.calls", float_of_int t.analysis_calls);
    ("wcet.analysis.fixpoint_passes", float_of_int t.analysis_passes);
    ("wcet.path.self_s", self "wcet.path");
    ("prefetch.optimizer.self_s", self "prefetch.optimizer");
    ("prefetch.optimizer.reanalysis_s", t.opt_reanalysis_s);
    ("prefetch.optimizer.rounds", float_of_int t.opt_rounds);
    ("prefetch.optimizer.fixpoint_passes", float_of_int t.opt_passes);
    ("prefetch.optimizer.insertions", float_of_int t.opt_insertions);
    ("prefetch.optimizer.rejected", float_of_int t.opt_rejected);
    ("prefetch.optimizer.insertions_per_round", ratio t.opt_insertions t.opt_rounds);
    ("refine.explore.self_s", self "refine.explore");
    ("refine.explore.calls", float_of_int t.refine_calls);
    ("refine.explore.states", float_of_int t.refine_states);
    ("refine.explore.budget_exhausted", float_of_int t.refine_budget_exhausted);
    ("refine.explore.reclaimed_ratio", ratio (t.nc_before - t.nc_after) t.nc_before);
    ("sim.simulator.self_s", sim_s);
    ("sim.simulator.calls", float_of_int t.sim_calls);
    ("sim.simulator.instructions", float_of_int t.sim_instructions);
    ( "sim.simulator.instr_per_s",
      if sim_s > 0.0 then float_of_int t.sim_instructions /. sim_s else 0.0 );
    ("energy.self_s", self "energy");
    ("verify.audit.self_s", self "verify.audit");
    ("verify.audit.obligations", float_of_int t.audit_obligations);
    ("verify.audit.refine_rerun_s", t.audit_refine_s);
    ("verify.audit.ipet_fastpath", float_of_int t.audit_fastpath);
    ("verify.audit.ipet_slowpath", float_of_int t.audit_slowpath);
    ("other.self_s", wall -. layer_s);
    ("trace.spans_dropped", float_of_int t.spans_dropped);
  ]
