(* Quantitative competitiveness bounds (Kahlen & Reineke style): turn
   a policy's competitiveness against an LRU reference configuration
   into a per-program miss-count guarantee, computed from the LRU
   must analysis at the reference associativity.

   For a policy with [competitiveness ~assoc = Some (va, ratio, add)]
   and a program whose references partition into cache sets, every
   execution satisfies, per set,

     misses_policy(assoc)  <=  ratio * misses_LRU(va) + add

   starting from cold caches on both sides (FIFO: Sleator-Tarjan
   k-competitiveness of any conservative policy, ratio = add = k;
   PLRU: the log2 k + 1 most recently used distinct blocks are
   resident, so every PLRU miss is an LRU(log2 k + 1) miss — ratio 1,
   additive 0).  Summing over the sets the program actually touches
   and bounding misses_LRU(va) by the LRU analysis' own
   [miss_count_bound] at associativity [va] gives a sound whole-run
   bound on the non-LRU policy's demand misses.

   PLRU needs no reference run: its must domain is LRU's at
   [va = plru_must_assoc assoc] (see [Ucp_policy]), so the analysis
   being refined already holds that must fixpoint, and its
   [miss_count_bound] is the reference bound.  FIFO's must domain is
   not LRU's, so FIFO runs the reference analysis.

   The phase argument behind both inequalities breaks when prefetch
   fills interleave with demand accesses, so programs containing
   prefetch instructions get no quantitative bound ([None]). *)

module Vivu = Ucp_cfg.Vivu
module Program = Ucp_isa.Program
module Layout = Ucp_isa.Layout
module Config = Ucp_cache.Config
module Analysis = Ucp_wcet.Analysis

(* Distinct cache sets the program's own references map to: the
   per-set additive constant is only paid where the inequality is
   actually applied. *)
let sets_touched layout config =
  let seen = Array.make config.Config.sets false in
  List.iter
    (fun mb -> seen.(Config.set_of_mem_block config mb) <- true)
    (Layout.mem_block_ids layout);
  Array.fold_left (fun n touched -> if touched then n + 1 else n) 0 seen

(* The LRU must analysis at [va] on a configuration with the same sets
   and lines, without the may domain: LRU's must transfer ignores its
   hints, so the must fixpoint is the same, and [miss_count_bound]
   charges Always_miss and Not_classified alike, so the bound is
   too. *)
let reference_bound ?deadline a ~va =
  let config = Analysis.config a in
  let ref_config =
    Config.make ~assoc:va ~block_bytes:config.Config.block_bytes
      ~capacity:(va * config.Config.block_bytes * config.Config.sets)
  in
  Analysis.miss_count_bound
    (Analysis.run ?deadline ~with_may:false ~policy:Ucp_policy.Lru (Analysis.vivu a)
       (Analysis.layout a) ref_config)

let miss_bound ?deadline (a : Analysis.t) =
  let policy = Analysis.policy a in
  let config = Analysis.config a in
  match Ucp_policy.competitiveness policy ~assoc:config.Config.assoc with
  | None -> None
  | Some (va, ratio, add) ->
    let program = Vivu.program (Analysis.vivu a) in
    if (not (Analysis.is_plain a)) || Program.prefetch_count program > 0 then
      None
    else begin
      (* PLRU's must fixpoint is the reference one, and its may
         domain never reaches the must transfer *)
      let lru_bound =
        match policy with
        | Ucp_policy.Plru -> Analysis.miss_count_bound a
        | Ucp_policy.Lru | Ucp_policy.Fifo -> reference_bound ?deadline a ~va
      in
      Some ((ratio * lru_bound) + (add * sets_touched (Analysis.layout a) config))
    end
