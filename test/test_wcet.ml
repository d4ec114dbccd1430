(* Tests for Ucp_wcet: classification, WCET path analysis, IPET
   agreement, and the soundness of the bound against the trace
   simulator. *)

module Program = Ucp_isa.Program
module Config = Ucp_cache.Config
module Cacti = Ucp_energy.Cacti
module Wcet = Ucp_wcet.Wcet
module Analysis = Ucp_wcet.Analysis
module Ipet = Ucp_wcet.Ipet
module Classification = Ucp_wcet.Classification
module Simulator = Ucp_sim.Simulator
module Dsl = Ucp_workloads.Dsl

let model = Ucp_testlib.tiny_model
let config = Config.make ~assoc:2 ~block_bytes:16 ~capacity:64

(* ------------------------------------------------------------------ *)
(* classification on crafted programs *)

let test_straightline_classification () =
  (* 8 instructions, 4 per block: the first slot of each block is a cold
     miss, the rest always hit *)
  let p = Dsl.compile ~name:"line" [ Dsl.compute 7 ] in
  let w = Wcet.compute p config model in
  let refs = Wcet.path_refs w in
  Array.iteri
    (fun i (node, pos) ->
      let cls = Analysis.classif w.Wcet.analysis ~node ~pos in
      let expected_miss = i mod 4 = 0 in
      Alcotest.(check bool)
        (Printf.sprintf "slot %d" i)
        expected_miss
        (Classification.is_wcet_miss cls))
    refs

let test_loop_steady_state_hits () =
  (* a small loop fits in the cache: rest-context slots are all hits *)
  let p = Dsl.compile ~name:"l" [ Dsl.loop 8 [ Dsl.compute 6 ] ] in
  let w = Wcet.compute p config model in
  let vivu = Analysis.vivu w.Wcet.analysis in
  let rest_nodes =
    List.filter
      (fun id ->
        match List.rev (Ucp_cfg.Vivu.node vivu id).Ucp_cfg.Vivu.ctx with
        | (_, Ucp_cfg.Vivu.Rest) :: _ -> true
        | _ -> false)
      (List.init (Ucp_cfg.Vivu.node_count vivu) (fun i -> i))
  in
  Alcotest.(check bool) "has rest nodes" true (rest_nodes <> []);
  List.iter
    (fun node ->
      let nd = Ucp_cfg.Vivu.node vivu node in
      for pos = 0 to Program.slots (Ucp_cfg.Vivu.program vivu) nd.Ucp_cfg.Vivu.block - 1 do
        Alcotest.(check bool) "rest slot hits" false
          (Classification.is_wcet_miss (Analysis.classif w.Wcet.analysis ~node ~pos))
      done)
    rest_nodes

let test_thrashing_loop_misses () =
  (* a loop body far larger than the cache: rest slots at block starts miss *)
  let p = Dsl.compile ~name:"big" [ Dsl.loop 4 [ Dsl.compute 100 ] ] in
  let w = Wcet.compute p config model in
  Alcotest.(check bool) "many WCET misses" true (Wcet.wcet_misses w > 50)

let test_tau_formula_straightline () =
  (* straight line: tau = hits * 1 + misses * (1 + penalty) *)
  let p = Dsl.compile ~name:"line" [ Dsl.compute 7 ] in
  let w = Wcet.compute p config model in
  let refs = Array.length (Wcet.path_refs w) in
  let misses = Wcet.wcet_misses w in
  Alcotest.(check int) "tau formula" (refs + (misses * model.Cacti.miss_penalty)) w.Wcet.tau

let test_path_refs_order () =
  let p = Dsl.compile ~name:"l" [ Dsl.compute 2; Dsl.loop 3 [ Dsl.compute 2 ]; Dsl.compute 1 ] in
  let w = Wcet.compute p config model in
  let refs = Wcet.path_refs w in
  Alcotest.(check bool) "nonempty" true (Array.length refs > 0);
  (* within one node, slots are consecutive from 0 *)
  let _, first_pos = refs.(0) in
  Alcotest.(check int) "starts at slot 0" 0 first_pos

let test_miss_penalty_monotone () =
  let p = Dsl.compile ~name:"m" [ Dsl.loop 4 [ Dsl.compute 30 ] ] in
  let w_small = Wcet.compute p config { model with Cacti.miss_penalty = 4 } in
  let w_big = Wcet.compute p config { model with Cacti.miss_penalty = 40 } in
  Alcotest.(check bool) "penalty monotone" true (w_big.Wcet.tau >= w_small.Wcet.tau)

let test_cache_size_monotone_on_suite_case () =
  let p = Ucp_workloads.Suite.find "st" in
  let small = Config.make ~assoc:2 ~block_bytes:16 ~capacity:256 in
  let big = Config.make ~assoc:2 ~block_bytes:16 ~capacity:8192 in
  let w_small = Wcet.compute p small model in
  let w_big = Wcet.compute p big model in
  Alcotest.(check bool) "bigger cache never hurts here" true
    (w_big.Wcet.tau <= w_small.Wcet.tau)

let test_with_may_same_tau () =
  let p = Dsl.compile ~name:"x" [ Dsl.loop 5 [ Dsl.compute 20 ] ] in
  let w1 = Wcet.compute ~with_may:true p config model in
  let w2 = Wcet.compute ~with_may:false p config model in
  Alcotest.(check int) "tau identical without may" w1.Wcet.tau w2.Wcet.tau

(* ------------------------------------------------------------------ *)
(* residual stall for unchecked prefetches *)

(* A prefetch whose target uid is gone from the program is rejected by
   the layout the analysis reads. *)
let test_dangling_prefetch_rejected () =
  let p = Dsl.compile ~name:"dg" [ Dsl.compute 8 ] in
  let p, _ = Program.insert_prefetch p ~block:0 ~pos:1 ~target_uid:5 in
  let p = Program.remove_uid p 5 in
  Alcotest.(check bool) "Dangling_prefetch_target" true
    (try
       ignore (Wcet.compute p config model);
       false
     with Ucp_isa.Layout.Dangling_prefetch_target 5 as e ->
       Ucp_testlib.contains
         ~substring:"Layout.Dangling_prefetch_target: a prefetch targets uid 5"
         (Printexc.to_string e))

(* The fixpoint is monotone over finite domains, so no program reaches
   the pass cap; this is what a divergence would print. *)
let test_fixpoint_diverged_printed () =
  Alcotest.(check string) "printed"
    "Analysis.Fixpoint_diverged: crc reached no fixpoint in 1042 passes"
    (Printexc.to_string (Analysis.Fixpoint_diverged { program = "crc"; cap = 1042 }))

let test_residual_stall () =
  (* prefetch immediately before its use: the latency cannot be hidden *)
  let p = Dsl.compile ~name:"r" [ Dsl.compute 9 ] in
  (* target the last instruction, insert just before it *)
  let target_uid = 8 in
  let p', _ = Program.insert_prefetch p ~block:0 ~pos:8 ~target_uid in
  let w = Wcet.compute p' config model in
  Alcotest.(check bool) "residual positive for back-to-back prefetch" true
    (Wcet.residual_prefetch_stall w >= 0);
  Alcotest.(check int) "tau_with_residual adds it"
    (w.Wcet.tau + Wcet.residual_prefetch_stall w)
    (Wcet.tau_with_residual w)

(* The node-level residual-stall search charges what the slot-level
   reference search ([Ucp_testlib.reference_residual_stall]) charges, on
   the basic-block-start version of every suite program (a prefetch at
   each block start, so many of them sit close to their uses) at three
   geometries and both techs, whose prefetch latencies differ.  The
   charge reads only the layout, the graph and the latency, so one
   policy suffices; the optimizer pin in test_prefetch covers the
   optimizer's outputs under all three. *)
let test_residual_stall_reference () =
  let charged = ref 0 in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun kid ->
          let config = List.assoc kid Config.paper_configs in
          let model45 = Cacti.model config Ucp_energy.Tech.nm45 in
          let bb = Ucp_prefetch.Baselines.bb_start p config model45 in
          let a = Wcet.analyze ~with_may:false bb config in
          List.iter
            (fun tech ->
              let w = Wcet.of_analysis a (Cacti.model config tech) in
              let expected = Ucp_testlib.reference_residual_stall w in
              if expected > 0 then incr charged;
              Alcotest.(check int)
                (Printf.sprintf "%s:%s:%s" name kid tech.Ucp_energy.Tech.label)
                expected (Wcet.residual_prefetch_stall w))
            [ Ucp_energy.Tech.nm45; Ucp_energy.Tech.nm32 ])
        [ "k4"; "k6"; "k35" ])
    Ucp_workloads.Suite.all;
  Alcotest.(check bool) "some charges are nonzero" true (!charged > 0)

(* ------------------------------------------------------------------ *)
(* IPET agreement *)

let test_ipet_agrees_simple () =
  let p = Dsl.compile ~name:"i" [ Dsl.compute 3; Dsl.loop 4 [ Dsl.compute 5 ]; Dsl.compute 2 ] in
  let w = Wcet.compute p config model in
  Alcotest.(check bool) "ILP = longest path" true (Ipet.agrees_with_longest_path w)

let test_ipet_agrees_conditional () =
  let p =
    Dsl.compile ~name:"c"
      [ Dsl.loop 3 [ Dsl.compute 2; Dsl.if_ [ Dsl.compute 6 ] [ Dsl.compute 2 ]; Dsl.compute 1 ] ]
  in
  let w = Wcet.compute p config model in
  Alcotest.(check bool) "ILP = longest path" true (Ipet.agrees_with_longest_path w)

let test_cfg_ipet_upper_bound () =
  let p =
    Dsl.compile ~name:"cf"
      [ Dsl.compute 3; Dsl.loop 5 [ Dsl.compute 4; Dsl.if_ [ Dsl.compute 5 ] [ Dsl.compute 1 ] ]; Dsl.compute 2 ]
  in
  let w = Wcet.compute p config model in
  let cfg_r = Ipet.solve_cfg w in
  Alcotest.(check bool) "block-level IPET bounds the context-sensitive tau" true
    (cfg_r.Ipet.tau >= w.Wcet.tau);
  (* the entry block executes exactly once in the optimum *)
  Alcotest.(check int) "entry count" 1 cfg_r.Ipet.counts.(0)

(* Loop bounds are positive and the entry flow is 1, so no analysed
   program should reach these; this is what each solver would print. *)
let test_ipet_unsolvable_printed () =
  List.iter
    (fun (solver, unbounded, text) ->
      Alcotest.(check string) "printed" text
        (Printexc.to_string (Ipet.Unsolvable_flow_model { solver; unbounded })))
    [
      ("solve", false, "Ipet.solve: infeasible flow model");
      ("solve", true, "Ipet.solve: unbounded flow model");
      ("solve_cfg", false, "Ipet.solve_cfg: infeasible flow model");
      ("solve_cfg", true, "Ipet.solve_cfg: unbounded flow model");
    ]

(* [node_cycles] and [tau] against a per-slot reference: each slot of a
   node costs the hit time plus, when charged as a miss, the penalty;
   tau weighs the path's node sums by their multiplicities. *)
let prop_node_cycles_reference =
  QCheck2.Test.make ~name:"node cycles and tau match a per-slot sum" ~count:100
    ~print:(fun (p, c) -> Ucp_testlib.print_program p ^ " @ " ^ Ucp_testlib.print_config c)
    QCheck2.Gen.(pair Ucp_testlib.gen_program Ucp_testlib.gen_config)
    (fun (p, c) ->
      let w = Wcet.compute p c model in
      let a = w.Wcet.analysis in
      let vivu = Analysis.vivu a in
      let reference =
        Array.init (Ucp_cfg.Vivu.node_count vivu) (fun node ->
            let nd = Ucp_cfg.Vivu.node vivu node in
            let sum = ref 0 in
            for pos = 0 to Program.slots p nd.Ucp_cfg.Vivu.block - 1 do
              sum := !sum + model.Cacti.hit_cycles;
              if Classification.is_wcet_miss (Analysis.classif a ~node ~pos) then
                sum := !sum + model.Cacti.miss_penalty
            done;
            !sum)
      in
      reference = w.Wcet.node_cycles
      && w.Wcet.tau
         = Array.fold_left
             (fun acc node -> acc + (reference.(node) * Ucp_cfg.Vivu.mult vivu node))
             0 w.Wcet.path)

let prop_cfg_ipet_upper_bound =
  QCheck2.Test.make ~name:"CFG-level IPET is an upper bound of tau_w" ~count:40
    ~print:Ucp_testlib.print_program Ucp_testlib.gen_program (fun p ->
      let w = Wcet.compute p config model in
      (Ipet.solve_cfg w).Ipet.tau >= w.Wcet.tau)

let prop_ipet_agreement =
  QCheck2.Test.make ~name:"IPET ILP equals the longest-path tau" ~count:60
    ~print:Ucp_testlib.print_program Ucp_testlib.gen_program (fun p ->
      let w = Wcet.compute p config model in
      Ipet.agrees_with_longest_path w)

(* ------------------------------------------------------------------ *)
(* soundness against the simulator *)

let prop_sim_within_wcet =
  QCheck2.Test.make ~name:"simulated memory time never exceeds tau_w" ~count:120
    ~print:(fun (p, seed) -> Printf.sprintf "%s seed=%d" (Ucp_testlib.print_program p) seed)
    QCheck2.Gen.(pair Ucp_testlib.gen_program (int_bound 1000))
    (fun (p, seed) ->
      let w = Wcet.compute p config model in
      let stats = Simulator.run ~seed p config model in
      Simulator.acet stats <= w.Wcet.tau)

let prop_sim_misses_within_bound =
  QCheck2.Test.make ~name:"simulated misses never exceed the analysis bound" ~count:120
    ~print:(fun (p, seed) -> Printf.sprintf "%s seed=%d" (Ucp_testlib.print_program p) seed)
    QCheck2.Gen.(pair Ucp_testlib.gen_program (int_bound 1000))
    (fun (p, seed) ->
      let w = Wcet.compute p config model in
      let stats = Simulator.run ~seed p config model in
      stats.Simulator.counts.Ucp_energy.Account.misses
      <= Analysis.miss_count_bound w.Wcet.analysis)

let prop_sim_within_wcet_across_configs =
  QCheck2.Test.make ~name:"soundness across random configurations" ~count:100
    ~print:(fun (p, c) -> Ucp_testlib.print_program p ^ " @ " ^ Ucp_testlib.print_config c)
    QCheck2.Gen.(pair Ucp_testlib.gen_program Ucp_testlib.gen_config)
    (fun (p, c) ->
      let w = Wcet.compute p c model in
      let stats = Simulator.run p c model in
      Simulator.acet stats <= w.Wcet.tau)

(* ------------------------------------------------------------------ *)
(* witness replay: the certification layer must accept every genuine
   analysis — the WCET path is a real execution whose replayed cost
   stays within tau_w, under each replacement policy *)

let test_witness_replay_policies () =
  let p = Ucp_workloads.Suite.find "crc" in
  let c = Config.make ~assoc:2 ~block_bytes:16 ~capacity:256 in
  List.iter
    (fun policy ->
      let w = Wcet.compute ~with_may:true ~policy p c model in
      match Ucp_verify.replay_witness w with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" (Ucp_policy.to_string policy) msg)
    [ Ucp_policy.Lru; Ucp_policy.Fifo; Ucp_policy.Plru ]

let prop_witness_replay =
  QCheck2.Test.make ~name:"witness replay certifies random programs (all policies)"
    ~count:60 ~print:Ucp_testlib.print_program Ucp_testlib.gen_program (fun p ->
      List.for_all
        (fun policy ->
          let w = Wcet.compute ~with_may:true ~policy p config model in
          Result.is_ok (Ucp_verify.replay_witness w))
        [ Ucp_policy.Lru; Ucp_policy.Fifo; Ucp_policy.Plru ])

(* ------------------------------------------------------------------ *)
(* fixpoint output pinned: per-slot classifications, every node's
   in-must/in-may and the pass count, digested over the suite below
   2000 slots and a fixed set of generated programs at four
   configurations (256 B and 512 B direct-mapped, 8 KiB 2- and
   4-way), and over the two largest programs at the 4-set and 2-set
   256 B 4-way caches, where FIFO and PLRU may sets grow longest.
   Any change to how the fixpoint iterates or how the abstract states
   are represented must leave all of it byte-identical. *)

let pin_programs =
  List.filter_map
    (fun (_, p) -> if Program.total_slots p < 2000 then Some p else None)
    Ucp_workloads.Suite.all
  @ List.concat_map
      (fun cls ->
        List.init 4 (fun seed -> Ucp_workloads.Generate.program ~seed:(seed + 1) ~cls))
      [ "s"; "m"; "l" ]

let paper_configs ids = List.map (fun id -> List.assoc id Config.paper_configs) ids
let pin_configs = paper_configs [ "k4"; "k10"; "k35"; "k36" ]
let large_programs = List.map Ucp_workloads.Suite.find [ "nsichneu"; "statemate" ]
let small_configs = paper_configs [ "k3"; "k6" ]

let digest_analysis buf a =
  let vivu = Analysis.vivu a in
  let program = Ucp_cfg.Vivu.program vivu in
  let state s =
    List.iter
      (fun b ->
        Printf.bprintf buf "%d:%d," b
          (Option.value ~default:(-1) (Ucp_cache.Abstract.age s b)))
      (Ucp_cache.Abstract.blocks s);
    Buffer.add_char buf '|'
  in
  Printf.bprintf buf "passes %d\n" (Analysis.fixpoint_passes a);
  for node = 0 to Ucp_cfg.Vivu.node_count vivu - 1 do
    let block = (Ucp_cfg.Vivu.node vivu node).Ucp_cfg.Vivu.block in
    for pos = 0 to Program.slots program block - 1 do
      Buffer.add_string buf (Classification.to_string (Analysis.classif a ~node ~pos))
    done;
    state (Analysis.in_must a node);
    state (Analysis.in_may a node);
    Buffer.add_char buf '\n'
  done

let pin_digest ~programs ~configs analyze =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun p -> List.iter (fun c -> digest_analysis buf (analyze p c)) configs)
    programs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_fixpoint_output_pinned () =
  let policies =
    [ ("lru", Ucp_policy.Lru); ("fifo", Ucp_policy.Fifo); ("plru", Ucp_policy.Plru) ]
  in
  let per_policy prefix programs configs =
    List.concat_map
      (fun (label, policy) ->
        List.map
          (fun with_may ->
            ( Printf.sprintf "%s%s with_may=%b" prefix label with_may,
              (programs, configs, fun p c -> Wcet.analyze ~with_may ~policy p c) ))
          [ true; false ])
      policies
  in
  let runs =
    per_policy "" pin_programs pin_configs
    @ [
        ( "lru pinned",
          ( pin_programs,
            pin_configs,
            fun p c -> Wcet.analyze ~pinned:(fun mb -> mb mod 5 = 0) p c ) );
      ]
    @ per_policy "nsichneu+statemate k3,k6 " large_programs small_configs
    @ List.map
        (fun (label, policy) ->
          ( "bb-start " ^ label,
            ( pin_programs,
              pin_configs,
              fun p c ->
                Wcet.analyze ~policy
                  (Ucp_prefetch.Baselines.bb_start p c (Cacti.model c Ucp_energy.Tech.nm45))
                  c ) ))
        policies
  in
  let lru = "6689f7d915ce7fc0ced5c2c050059381"
  and lru_must = "43f988d10c96d9c9e534631555ab16e0"
  and fifo = "ac0a083b4e130a2cfc18635d25cc2585"
  and plru = "269b870223573c250fb938fecb55ff58"
  and plru_must = "0877bfa7a80a0268de56194353047705" in
  (* FIFO forces the may analysis on, so its two [with_may] runs
     agree *)
  let large_fifo = "81cae4f8164bbac55e7fa46acf945036" in
  let expected =
    [
      ("lru with_may=true", lru);
      ("lru with_may=false", lru_must);
      ("fifo with_may=true", fifo);
      ("fifo with_may=false", fifo);
      ("plru with_may=true", plru);
      ("plru with_may=false", plru_must);
      ("lru pinned", "fd8383fe52d19e03d65c6879c31a4a90");
      ("nsichneu+statemate k3,k6 lru with_may=true", "962bc247ba86284e26e8e74e13e2a7c1");
      ("nsichneu+statemate k3,k6 lru with_may=false", "02772447abfd7083ab4e867aaccd66b4");
      ("nsichneu+statemate k3,k6 fifo with_may=true", large_fifo);
      ("nsichneu+statemate k3,k6 fifo with_may=false", large_fifo);
      ("nsichneu+statemate k3,k6 plru with_may=true", "e46a2fcb47a0553b587e681c2adb814b");
      ("nsichneu+statemate k3,k6 plru with_may=false", "48e6a8cc83ff8b86fa0adfc83e5fc401");
      ("bb-start lru", "5804602e9153c64bdb76fba208fbb784");
      ("bb-start fifo", "6c853241a2b068917ee376630222c736");
      ("bb-start plru", "d04e805c1d60446aa35e3cbf6ba99293");
    ]
  in
  Alcotest.(check (list (pair string string)))
    "digests" expected
    (List.map
       (fun (label, (programs, configs, analyze)) ->
         (label, pin_digest ~programs ~configs analyze))
       runs)

let () =
  Alcotest.run "ucp_wcet"
    [
      ( "classification",
        [
          Alcotest.test_case "straight line" `Quick test_straightline_classification;
          Alcotest.test_case "loop steady state" `Quick test_loop_steady_state_hits;
          Alcotest.test_case "thrashing loop" `Quick test_thrashing_loop_misses;
          Alcotest.test_case "with/without may" `Quick test_with_may_same_tau;
        ] );
      ( "wcet",
        [
          Alcotest.test_case "tau formula" `Quick test_tau_formula_straightline;
          Alcotest.test_case "path refs order" `Quick test_path_refs_order;
          Alcotest.test_case "penalty monotone" `Quick test_miss_penalty_monotone;
          Alcotest.test_case "cache size monotone" `Quick
            test_cache_size_monotone_on_suite_case;
          Alcotest.test_case "residual stall" `Quick test_residual_stall;
          Alcotest.test_case "dangling prefetch rejected" `Quick
            test_dangling_prefetch_rejected;
          Alcotest.test_case "fixpoint divergence printed" `Quick
            test_fixpoint_diverged_printed;
          Alcotest.test_case "fixpoint output pinned" `Quick test_fixpoint_output_pinned;
          Alcotest.test_case "residual stall reference" `Quick
            test_residual_stall_reference;
          QCheck_alcotest.to_alcotest prop_node_cycles_reference;
        ] );
      ( "ipet",
        [
          Alcotest.test_case "simple agreement" `Quick test_ipet_agrees_simple;
          Alcotest.test_case "conditional agreement" `Quick test_ipet_agrees_conditional;
          Alcotest.test_case "cfg-level upper bound" `Quick test_cfg_ipet_upper_bound;
          Alcotest.test_case "unsolvable model printed" `Quick
            test_ipet_unsolvable_printed;
          QCheck_alcotest.to_alcotest prop_ipet_agreement;
          QCheck_alcotest.to_alcotest prop_cfg_ipet_upper_bound;
        ] );
      ( "soundness",
        [
          QCheck_alcotest.to_alcotest prop_sim_within_wcet;
          QCheck_alcotest.to_alcotest prop_sim_misses_within_bound;
          QCheck_alcotest.to_alcotest prop_sim_within_wcet_across_configs;
        ] );
      ( "witness",
        [
          Alcotest.test_case "replay on a suite case" `Quick
            test_witness_replay_policies;
          QCheck_alcotest.to_alcotest prop_witness_replay;
        ] );
    ]
