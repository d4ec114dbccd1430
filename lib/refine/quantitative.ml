(* Quantitative competitiveness bounds (Kahlen & Reineke style): turn
   a policy's competitiveness against an LRU reference configuration
   into a per-program miss-count guarantee, computed from the LRU
   must/may analysis the pipeline already knows how to run.

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
  let seen = Hashtbl.create 16 in
  List.iter
    (fun mb -> Hashtbl.replace seen (Config.set_of_mem_block config mb) ())
    (Layout.mem_block_ids layout);
  Hashtbl.length seen

let miss_bound ?deadline (a : Analysis.t) =
  let policy = Analysis.policy a in
  let config = Analysis.config a in
  match Ucp_policy.competitiveness policy ~assoc:config.Config.assoc with
  | None -> None
  | Some (va, ratio, add) ->
    let vivu = Analysis.vivu a in
    let program = Vivu.program vivu in
    if (not (Analysis.is_plain a)) || Program.prefetch_count program > 0 then
      None
    else begin
      let layout = Analysis.layout a in
      let ref_config =
        Config.make ~assoc:va ~block_bytes:config.Config.block_bytes
          ~capacity:(va * config.Config.block_bytes * config.Config.sets)
      in
      (* without the may domain: LRU's must transfer ignores its
         hints, so the must fixpoint is the same, and
         [miss_count_bound] charges Always_miss and Not_classified
         alike, so the bound is too *)
      let lru =
        Analysis.run ?deadline ~with_may:false ~policy:Ucp_policy.Lru vivu layout
          ref_config
      in
      let lru_bound = Analysis.miss_count_bound lru in
      Some ((ratio * lru_bound) + (add * sets_touched layout config))
    end
