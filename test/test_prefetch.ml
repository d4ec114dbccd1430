(* Tests for Ucp_prefetch: the optimizer's guarantees (Theorem 1 and
   prefetch equivalence), candidate discovery, the placement modes, and
   the baselines. *)

module Program = Ucp_isa.Program
module Config = Ucp_cache.Config
module Cacti = Ucp_energy.Cacti
module Wcet = Ucp_wcet.Wcet
module Analysis = Ucp_wcet.Analysis
module Optimizer = Ucp_prefetch.Optimizer
module Baselines = Ucp_prefetch.Baselines
module Simulator = Ucp_sim.Simulator
module Dsl = Ucp_workloads.Dsl

let model = Ucp_testlib.tiny_model
let config = Config.make ~assoc:2 ~block_bytes:16 ~capacity:64

(* a program with a known prefetchable pattern: main loop calling an
   out-of-line routine that evicts the caller's blocks *)
let conflict_program =
  Dsl.compile ~name:"conflict"
    [ Dsl.loop 10 [ Dsl.compute 4; Dsl.Far [ Dsl.compute 6 ]; Dsl.compute 3 ] ]

(* ------------------------------------------------------------------ *)
(* optimizer guarantees *)

let test_theorem1_on_conflict_program () =
  let r = Optimizer.optimize conflict_program config model in
  Alcotest.(check bool) "tau does not grow" true
    (r.Optimizer.tau_after <= r.Optimizer.tau_before);
  Alcotest.(check bool) "prefetch equivalent" true
    (Program.prefetch_equivalent conflict_program r.Optimizer.program)

let test_optimizer_improves_conflict_program () =
  (* the two profitable prefetches only pay off together (each alone
     shifts a block boundary); a loose budget lets the batch through *)
  let r = Optimizer.optimize ~overhead_budget:0.25 conflict_program config model in
  Alcotest.(check bool) "inserts something" true (r.Optimizer.insertions <> []);
  Alcotest.(check bool) "tau strictly improves" true
    (r.Optimizer.tau_after < r.Optimizer.tau_before)

let test_optimizer_noop_when_fitting () =
  (* the whole program fits in a big cache: nothing to do *)
  let big = Config.make ~assoc:2 ~block_bytes:16 ~capacity:8192 in
  let r = Optimizer.optimize conflict_program big model in
  Alcotest.(check int) "no insertions" 0 (List.length r.Optimizer.insertions);
  Alcotest.(check int) "tau unchanged" r.Optimizer.tau_before r.Optimizer.tau_after

let test_insertion_metadata_consistent () =
  let r = Optimizer.optimize ~overhead_budget:0.25 conflict_program config model in
  List.iter
    (fun (ins : Optimizer.insertion) ->
      Alcotest.(check bool) "per-step tau non-increase" true
        (ins.Optimizer.tau_after <= ins.Optimizer.tau_before);
      (* the inserted uid exists in the final program *)
      Alcotest.(check bool) "prefetch uid present" true
        (Program.find_uid r.Optimizer.program ins.Optimizer.prefetch_uid <> None))
    r.Optimizer.insertions

let test_max_insertions_respected () =
  let r = Optimizer.optimize ~max_insertions:1 conflict_program config model in
  Alcotest.(check bool) "at most..." true (List.length r.Optimizer.insertions <= 1)

let test_overhead_budget_zero_blocks_everything () =
  let r = Optimizer.optimize ~overhead_budget:0.0 conflict_program config model in
  (* the floor of 16 dynamic executions still allows tiny insertions;
     a zero budget must keep the overhead at or below that floor *)
  Alcotest.(check bool) "tiny budget, few insertions" true
    (List.length r.Optimizer.insertions <= 16)

let test_placement_modes_both_safe () =
  List.iter
    (fun placement ->
      let r = Optimizer.optimize ~placement conflict_program config model in
      Alcotest.(check bool) "safe" true (r.Optimizer.tau_after <= r.Optimizer.tau_before))
    [ Optimizer.At_eviction; Optimizer.Latest_effective ]

let test_discover_candidates_shape () =
  let w = Wcet.compute ~with_may:false conflict_program config model in
  let cands = Optimizer.discover w in
  List.iter
    (fun c ->
      Alcotest.(check bool) "gain positive" true (c.Optimizer.cand_gain > 0);
      Alcotest.(check bool) "cost positive" true (c.Optimizer.cand_cost > 0);
      Alcotest.(check bool) "target uid exists" true
        (Program.find_uid conflict_program c.Optimizer.cand_target_uid <> None))
    cands

(* property: Theorem 1 + prefetch equivalence on random programs and
   configurations *)
let prop_theorem1 =
  QCheck2.Test.make ~name:"Theorem 1 on random programs/configs" ~count:60
    ~print:(fun (p, c) -> Ucp_testlib.print_program p ^ " @ " ^ Ucp_testlib.print_config c)
    QCheck2.Gen.(pair Ucp_testlib.gen_program Ucp_testlib.gen_config)
    (fun (p, c) ->
      let r = Optimizer.optimize p c model in
      r.Optimizer.tau_after <= r.Optimizer.tau_before
      && Program.prefetch_equivalent p r.Optimizer.program)

(* property: the optimized program still respects the WCET bound in
   simulation (soundness survives optimization) *)
let prop_optimized_sim_within_wcet =
  QCheck2.Test.make ~name:"optimized binaries stay within tau_with_residual" ~count:40
    ~print:(fun (p, seed) -> Printf.sprintf "%s seed=%d" (Ucp_testlib.print_program p) seed)
    QCheck2.Gen.(pair Ucp_testlib.gen_program (int_bound 100))
    (fun (p, seed) ->
      let r = Optimizer.optimize p config model in
      let w = Wcet.compute ~with_may:false r.Optimizer.program config model in
      let stats = Simulator.run ~seed r.Optimizer.program config model in
      Simulator.acet stats <= Wcet.tau_with_residual w)

(* property: the analysis miss bound of the optimized program never
   exceeds the original's (Condition 2 in aggregate) *)
let prop_miss_bound_non_increase =
  QCheck2.Test.make ~name:"optimization never increases the final tau bound" ~count:50
    ~print:Ucp_testlib.print_program Ucp_testlib.gen_program (fun p ->
      let r = Optimizer.optimize p config model in
      let w0 = Wcet.compute ~with_may:false p config model in
      let w1 = Wcet.compute ~with_may:false r.Optimizer.program config model in
      Wcet.tau_with_residual w1 <= Wcet.tau_with_residual w0)

let test_optimizer_deterministic () =
  let a = Optimizer.optimize conflict_program config model in
  let b = Optimizer.optimize conflict_program config model in
  Alcotest.(check int) "same insertions" (List.length a.Optimizer.insertions)
    (List.length b.Optimizer.insertions);
  Alcotest.(check int) "same tau" a.Optimizer.tau_after b.Optimizer.tau_after

(* ------------------------------------------------------------------ *)
(* baselines *)

let test_bb_start_inserts () =
  let p = Baselines.bb_start conflict_program config model in
  Alcotest.(check bool) "adds prefetches" true (Program.prefetch_count p > 0);
  Alcotest.(check bool) "prefetch equivalent" true
    (Program.prefetch_equivalent conflict_program p)

let test_bb_start_prefetches_at_block_start () =
  let p = Baselines.bb_start conflict_program config model in
  (* in every block, prefetches only appear as a prefix of the body *)
  for b = 0 to Program.block_count p - 1 do
    let body = (Program.block p b).Program.body in
    let seen_compute = ref false in
    Array.iter
      (fun i ->
        if Ucp_isa.Instr.is_prefetch i then
          Alcotest.(check bool) "prefix only" false !seen_compute
        else seen_compute := true)
      body
  done

let test_lock_greedy_respects_geometry () =
  let lock = Baselines.lock_greedy conflict_program config model in
  (* at most [assoc] locked blocks per set *)
  let per_set = Hashtbl.create 8 in
  List.iter
    (fun mb ->
      let s = Config.set_of_mem_block config mb in
      Hashtbl.replace per_set s (1 + try Hashtbl.find per_set s with Not_found -> 0))
    lock.Baselines.locked_blocks;
  Hashtbl.iter
    (fun _ n -> Alcotest.(check bool) "within assoc" true (n <= config.Config.assoc))
    per_set

let test_wcet_locked_extremes () =
  let layout = Ucp_isa.Layout.make conflict_program ~block_bytes:16 in
  let all = Ucp_isa.Layout.mem_block_ids layout in
  let tau_all = Baselines.wcet_locked conflict_program config model ~locked:all in
  let tau_none = Baselines.wcet_locked conflict_program config model ~locked:[] in
  Alcotest.(check bool) "all-locked is all hits" true (tau_all < tau_none);
  (* all-locked tau equals the WCET-path reference count *)
  let w = Wcet.compute conflict_program config model in
  let refs = Array.length (Wcet.path_refs w) in
  let path_instrs =
    (* tau with everything hitting = weighted path instruction count *)
    Array.fold_left
      (fun acc nid ->
        let nd = Ucp_cfg.Vivu.node (Analysis.vivu w.Wcet.analysis) nid in
        acc
        + w.Wcet.n_w.(nid)
          * Program.slots conflict_program nd.Ucp_cfg.Vivu.block)
      0 w.Wcet.path
  in
  ignore refs;
  Alcotest.(check int) "all-locked tau" path_instrs tau_all

let test_lock_greedy_beats_empty_lock () =
  let lock = Baselines.lock_greedy conflict_program config model in
  let tau_none = Baselines.wcet_locked conflict_program config model ~locked:[] in
  Alcotest.(check bool) "greedy content helps" true (lock.Baselines.tau_locked <= tau_none)

let test_hybrid_locking () =
  let h = Baselines.lock_hybrid ~ways:1 conflict_program config model in
  (* geometry: one way locked, one way left *)
  Alcotest.(check int) "unlocked assoc" 1 h.Baselines.hybrid_config.Config.assoc;
  Alcotest.(check int) "same sets" config.Config.sets
    h.Baselines.hybrid_config.Config.sets;
  (* at most [ways] pinned blocks per set *)
  let per_set = Hashtbl.create 8 in
  List.iter
    (fun mb ->
      let s = Config.set_of_mem_block config mb in
      Hashtbl.replace per_set s (1 + (try Hashtbl.find per_set s with Not_found -> 0)))
    h.Baselines.hybrid_pinned;
  Hashtbl.iter (fun _ n -> Alcotest.(check bool) "<= ways" true (n <= 1)) per_set;
  (* pinned fetches never miss in simulation *)
  let stats =
    Simulator.run ~pinned:h.Baselines.hybrid_pinned
      ~cache_config:h.Baselines.hybrid_config h.Baselines.hybrid_program config model
  in
  Alcotest.(check bool) "hybrid runs" true (stats.Simulator.executed > 0);
  (* the hybrid WCET is at least as good as full locking of one way
     with nothing else (sanity: it has strictly more machinery) *)
  Alcotest.(check bool) "tau positive" true (h.Baselines.hybrid_tau > 0)

let test_hybrid_rejects_bad_ways () =
  Alcotest.(check bool) "ways = assoc rejected" true
    (try
       ignore (Baselines.lock_hybrid ~ways:config.Config.assoc conflict_program config model);
       false
     with Invalid_argument _ -> true)

let prop_bb_start_safe_bound =
  QCheck2.Test.make ~name:"bb-start WCET bound stays sound in simulation" ~count:40
    ~print:Ucp_testlib.print_program Ucp_testlib.gen_program (fun p ->
      let bb = Baselines.bb_start p config model in
      let w = Wcet.compute ~with_may:false bb config model in
      let stats = Simulator.run bb config model in
      Simulator.acet stats <= Wcet.tau_with_residual w)

(* ------------------------------------------------------------------ *)
(* optimizer output pinned: every field of the result — the insertions
   with their uids, τ and misses before and after and estimated gains,
   the trail, the round and rejection tallies, and the final program —
   digested over the suite below 2000 slots at k4 and k6, both techs
   and all three policies, each started from the with-may analysis the
   sweep passes as [~initial], plus one pinned run shaped like
   [Baselines.lock_hybrid]'s.  A subset re-runs without [~initial] and
   must give the same results.  Every final program's residual-stall
   charge must also equal the reference search's.  Any change to how
   the optimizer computes must leave all of it byte-identical. *)

module Tech = Ucp_energy.Tech

let pin_programs =
  List.filter (fun (_, p) -> Program.total_slots p < 2000) Ucp_workloads.Suite.all

let digest_result buf (r : Optimizer.result) =
  List.iter
    (fun (i : Optimizer.insertion) ->
      Printf.bprintf buf "ins %d %d %d %d %d %d %d\n" i.target_uid i.prefetch_uid
        i.tau_before i.tau_after i.misses_before i.misses_after i.est_gain)
    r.insertions;
  List.iter
    (fun (rd : Optimizer.round) ->
      Buffer.add_string buf "round";
      List.iter (fun (pf, tgt) -> Printf.bprintf buf " %d:%d" pf tgt) rd.round_insertions;
      Printf.bprintf buf " %d %d %d %d\n" rd.round_tau_before rd.round_tau_after
        rd.round_misses_before rd.round_misses_after)
    r.trail;
  Printf.bprintf buf "rounds %d rejected %d %d %d tau %d %d\n" r.rounds r.rejected
    r.rejected_tau r.rejected_miss r.tau_before r.tau_after;
  Buffer.add_string buf
    (Format.asprintf "%a@.%a@." Program.pp r.program Program.pp r.original)

(* the final program's charge, against the reference search and the
   optimizer's own closing claim *)
let check_final_residual label ?pinned ~policy (r : Optimizer.result) config model =
  let w = Wcet.compute ~with_may:false ?pinned ~policy r.Optimizer.program config model in
  Alcotest.(check int) (label ^ " residual stall")
    (Ucp_testlib.reference_residual_stall w) (Wcet.residual_prefetch_stall w);
  Alcotest.(check int) (label ^ " tau_after") r.Optimizer.tau_after
    (Wcet.tau_with_residual w)

let test_optimizer_output_pinned () =
  let buf = Buffer.create (1 lsl 20) in
  let same = ref 0 in
  List.iteri
    (fun i (name, p) ->
      List.iter
        (fun kid ->
          let config = List.assoc kid Config.paper_configs in
          List.iter
            (fun policy ->
              let a0 = Wcet.analyze ~with_may:true ~policy p config in
              List.iter
                (fun tech ->
                  let model = Cacti.model config tech in
                  let label =
                    Printf.sprintf "%s:%s:%s:%s" name kid tech.Tech.label
                      (Ucp_policy.to_string policy)
                  in
                  let w0 = Wcet.of_analysis a0 model in
                  let r = Optimizer.optimize ~initial:w0 p config model in
                  Printf.bprintf buf "%s\n" label;
                  digest_result buf r;
                  check_final_residual label ~policy r config model;
                  (* every fifth program, at 45 nm: the run without
                     [~initial] computes its own first analysis *)
                  if i mod 5 = 0 && tech == Tech.nm45 then begin
                    let r' = Optimizer.optimize ~policy p config model in
                    let b = Buffer.create 4096 and b' = Buffer.create 4096 in
                    digest_result b r;
                    digest_result b' r';
                    Alcotest.(check string) (label ^ " without ~initial")
                      (Buffer.contents b) (Buffer.contents b');
                    incr same
                  end)
                [ Tech.nm45; Tech.nm32 ])
            [ Ucp_policy.Lru; Ucp_policy.Fifo; Ucp_policy.Plru ])
        [ "k4"; "k6" ])
    pin_programs;
  Alcotest.(check bool) "some runs without ~initial" true (!same > 0);
  (* one pinned run: the pinned blocks and unlocked-way configuration
     of a one-way lock_hybrid at k6 *)
  let p = Ucp_workloads.Suite.find "fft1" in
  let config = List.assoc "k6" Config.paper_configs in
  let model = Cacti.model config Tech.nm45 in
  let h = Baselines.lock_hybrid ~ways:1 p config model in
  let pinned mb = List.mem mb h.Baselines.hybrid_pinned in
  let r = Optimizer.optimize ~pinned p h.Baselines.hybrid_config model in
  Alcotest.(check bool) "pinned run as lock_hybrid's" true
    (r.Optimizer.tau_after = h.Baselines.hybrid_tau
    && r.Optimizer.program = h.Baselines.hybrid_program);
  Buffer.add_string buf "pinned\n";
  digest_result buf r;
  check_final_residual "pinned" ~pinned ~policy:Ucp_policy.Lru r
    h.Baselines.hybrid_config model;
  Alcotest.(check string) "digest" "c8ba3f547ee184e0c453aa7792a9cc1c"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "ucp_prefetch"
    [
      ( "optimizer",
        [
          Alcotest.test_case "theorem 1" `Quick test_theorem1_on_conflict_program;
          Alcotest.test_case "improves conflicts" `Quick
            test_optimizer_improves_conflict_program;
          Alcotest.test_case "noop when fitting" `Quick test_optimizer_noop_when_fitting;
          Alcotest.test_case "insertion metadata" `Quick test_insertion_metadata_consistent;
          Alcotest.test_case "max insertions" `Quick test_max_insertions_respected;
          Alcotest.test_case "overhead budget" `Quick
            test_overhead_budget_zero_blocks_everything;
          Alcotest.test_case "placement modes" `Quick test_placement_modes_both_safe;
          Alcotest.test_case "candidate shape" `Quick test_discover_candidates_shape;
          Alcotest.test_case "deterministic" `Quick test_optimizer_deterministic;
          QCheck_alcotest.to_alcotest prop_theorem1;
          QCheck_alcotest.to_alcotest prop_optimized_sim_within_wcet;
          QCheck_alcotest.to_alcotest prop_miss_bound_non_increase;
          Alcotest.test_case "optimizer output pinned" `Quick test_optimizer_output_pinned;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "bb-start inserts" `Quick test_bb_start_inserts;
          Alcotest.test_case "bb-start placement" `Quick
            test_bb_start_prefetches_at_block_start;
          Alcotest.test_case "lock geometry" `Quick test_lock_greedy_respects_geometry;
          Alcotest.test_case "locked extremes" `Quick test_wcet_locked_extremes;
          Alcotest.test_case "greedy lock helps" `Quick test_lock_greedy_beats_empty_lock;
          Alcotest.test_case "hybrid locking" `Quick test_hybrid_locking;
          Alcotest.test_case "hybrid bad ways" `Quick test_hybrid_rejects_bad_ways;
          QCheck_alcotest.to_alcotest prop_bb_start_safe_bound;
        ] );
    ]
