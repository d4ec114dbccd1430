module Config = Ucp_cache.Config
module Tech = Ucp_energy.Tech
module Cacti = Ucp_energy.Cacti
module Account = Ucp_energy.Account
module Wcet = Ucp_wcet.Wcet
module Analysis = Ucp_wcet.Analysis
module Simulator = Ucp_sim.Simulator
module Optimizer = Ucp_prefetch.Optimizer
module Refine = Ucp_refine.Explore
module Refine_mode = Ucp_refine.Mode

type measurement = {
  tau : int;
  acet : int;
  energy_pj : float;
  miss_rate : float;
  executed : int;
  demand_misses : int;
  wcet_miss_bound : int;
  ah : int;
  am : int;
  nc : int;
  refine : Refine.summary option;
      (* additive: the base bounds above are always the unrefined ones
         (so refined and unrefined record streams stay comparable and
         the optimizer trail's endpoints keep matching); the refined
         tau / miss bound / classification counts ride along here *)
}

let stage name f =
  let f () = Ucp_obs.Trace.with_span ~name f in
  if not (Ucp_obs.Metrics.enabled ()) then f ()
  else begin
    let t0 = Ucp_util.Clock.now_s () in
    Fun.protect
      ~finally:(fun () ->
        Ucp_obs.Metrics.fadd
          (Ucp_obs.Metrics.fcounter (name ^ "_seconds_total"))
          (Ucp_util.Clock.now_s () -. t0))
      f
  end

let model config tech = Cacti.model config tech

let measure ?deadline ?(seed = 42) ?model:mdl ?wcet ?(policy = Ucp_policy.Lru)
    ?(refine = Refine_mode.Off) ?(corrupt_refine = false) program config tech =
  let m = match mdl with Some m -> m | None -> model config tech in
  (* The may analysis is on so the measurement carries real always-miss
     counts; tau and the miss bound are unaffected (always-miss and
     not-classified are charged identically in the WCET scenario). *)
  let w =
    match wcet with
    | Some w -> w
    | None ->
      stage "analysis" (fun () ->
          Wcet.compute ?deadline ~with_may:true ~policy program config m)
  in
  let refined =
    match refine with
    | Refine_mode.Off -> None
    | mode ->
      stage "refine" (fun () ->
          Refine.run ?deadline ~corrupt:corrupt_refine ~mode w)
  in
  let stats =
    stage "simulate" (fun () -> Simulator.run ~seed ~policy program config m)
  in
  let breakdown = Account.energy m stats.Simulator.counts in
  let ah, am, nc = Analysis.classification_counts w.Wcet.analysis in
  {
    tau = Wcet.tau_with_residual w;
    acet = Simulator.acet stats;
    energy_pj = breakdown.Account.total_pj;
    miss_rate = stats.Simulator.miss_rate;
    executed = stats.Simulator.executed;
    demand_misses = stats.Simulator.counts.Account.misses;
    wcet_miss_bound = Analysis.miss_count_bound w.Wcet.analysis;
    ah;
    am;
    nc;
    refine = Option.map fst refined;
  }

let optimize ?model:mdl ?policy program config tech =
  let m = match mdl with Some m -> m | None -> model config tech in
  stage "optimize" (fun () -> Optimizer.optimize ?policy program config m)

type audit =
  | Not_audited
  | Audited of { checks : int; seconds : float }
  | Audit_skipped of string

type comparison = {
  original : measurement;
  optimized : measurement;
  prefetches : int;
  rejected : int;
  audit : audit;
}

type audit_input = {
  ai_original : Wcet.t;
  ai_optimized : Wcet.t;
  ai_result : Optimizer.result;
  ai_corrupt : bool;
  ai_seed : int;
  ai_refine : Refine_mode.t;
  ai_refine_original : Refine.summary option;
  ai_refine_optimized : Refine.summary option;
}

(* a plain span, not a [stage]: [Ucp_verify] already adds the audit's
   per-obligation intervals to [audit_seconds_total] *)
let finish_audit ?deadline input =
  let v =
    Ucp_obs.Trace.with_span ~name:"audit" (fun () ->
        Ucp_verify.audit_case ?deadline ~seed:input.ai_seed
          ~corrupt:input.ai_corrupt
          ~refine:
            (input.ai_refine, input.ai_refine_original, input.ai_refine_optimized)
          ~original:input.ai_original ~optimized:input.ai_optimized
          input.ai_result)
  in
  match v with
  | Ok (Ucp_verify.Certified { checks; seconds }) -> Audited { checks; seconds }
  | Ok (Ucp_verify.Skipped { reason }) -> Audit_skipped reason
  | Error msg -> raise (Outcome.Invariant ("audit: " ^ msg))

let prepare ?deadline ?(seed = 42) ?model:mdl ?(policy = Ucp_policy.Lru)
    ?analysis0 ?(audit = false) ?(corrupt_cert = false)
    ?(refine = Refine_mode.Off) ?(corrupt_refine = false) program config tech =
  let m = match mdl with Some m -> m | None -> model config tech in
  (* The original program's cache-aware analysis is the most expensive
     shared artifact of a use case: compute it once and hand it to both
     the optimizer (which otherwise recomputes it as its starting
     fixpoint) and the original-program measurement — or reuse a
     [?analysis0] memoized by the sweep across the technology axis
     (the abstract interpretation never looks at the timing model).
     The may analysis is on for the sake of the measurement's
     classification counters; the optimizer's own re-analyses stay
     may-free where the policy allows it. *)
  let w0 =
    stage "analysis" (fun () ->
        match analysis0 with
        | Some a -> Wcet.of_analysis a m
        | None -> Wcet.compute ?deadline ~with_may:true ~policy program config m)
  in
  let result =
    stage "optimize" (fun () ->
        Optimizer.optimize ?deadline ~initial:w0 program config m)
  in
  (* The optimized program's measurement analysis, computed explicitly
     so the audit can reuse it as its independent "after" artifact. *)
  let w1 =
    stage "analysis" (fun () ->
        Wcet.compute ?deadline ~with_may:true ~policy result.Optimizer.program
          config m)
  in
  (* the corrupt-refine fault targets the original side only: one
     unsound reclassification is enough for the audit to have to
     catch, and the optimized side stays an honest control *)
  let original =
    measure ?deadline ~seed ~model:m ~wcet:w0 ~policy ~refine
      ~corrupt_refine program config tech
  in
  let optimized =
    measure ?deadline ~seed ~model:m ~wcet:w1 ~policy ~refine
      result.Optimizer.program config tech
  in
  let cmp =
    {
      original;
      optimized;
      prefetches = List.length result.Optimizer.insertions;
      rejected = result.Optimizer.rejected;
      audit = Not_audited;
    }
  in
  let obligation =
    if not audit then None
    else
      Some
        {
          ai_original = w0;
          ai_optimized = w1;
          ai_result = result;
          ai_corrupt = corrupt_cert;
          ai_seed = seed;
          ai_refine = refine;
          ai_refine_original = original.refine;
          ai_refine_optimized = optimized.refine;
        }
  in
  (cmp, obligation)

let compare_optimized ?deadline ?seed ?model:mdl ?policy ?analysis0
    ?audit ?corrupt_cert ?refine ?corrupt_refine program config tech =
  let cmp, obligation =
    prepare ?deadline ?seed ?model:mdl ?policy ?analysis0 ?audit
      ?corrupt_cert ?refine ?corrupt_refine program config tech
  in
  match obligation with
  | None -> cmp
  | Some input -> { cmp with audit = finish_audit ?deadline input }
