(* ucp: command-line driver for the unlocked-cache-prefetching tool
   flow: analyze / optimize / simulate single use cases, compare
   baselines, run the paper's experiment sweeps. *)

open Cmdliner
module Config = Ucp_cache.Config
module Tech = Ucp_energy.Tech
module Suite = Ucp_workloads.Suite
module Pipeline = Ucp_core.Pipeline
module Experiments = Ucp_core.Experiments
module Report = Ucp_core.Report
module Wcet = Ucp_wcet.Wcet
module Analysis = Ucp_wcet.Analysis
module Optimizer = Ucp_prefetch.Optimizer
module Baselines = Ucp_prefetch.Baselines
module Simulator = Ucp_sim.Simulator
module Table = Ucp_util.Table

(* ------------------------------------------------------------------ *)
(* argument converters *)

let program_conv =
  let parse s =
    match Suite.find s with
    | program -> Ok program
    | exception Not_found ->
      Error (`Msg (Printf.sprintf "unknown program %S (try `ucp list')" s))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Ucp_isa.Program.name p))

let config_conv =
  let parse s =
    match List.assoc_opt s Config.paper_configs with
    | Some c -> Ok c
    | None -> (
      match String.split_on_char ',' s with
      | [ a; b; c ] -> (
        try
          Ok
            (Config.make ~assoc:(int_of_string a) ~block_bytes:(int_of_string b)
               ~capacity:(int_of_string c))
        with Invalid_argument m | Failure m -> Error (`Msg m))
      | _ -> Error (`Msg "expected a Table 2 id (k1..k36) or `assoc,block,capacity'"))
  in
  Arg.conv (parse, Config.pp)

let tech_conv =
  let parse = function
    | "45nm" | "45" -> Ok Tech.nm45
    | "32nm" | "32" -> Ok Tech.nm32
    | s -> Error (`Msg (Printf.sprintf "unknown technology %S (45nm | 32nm)" s))
  in
  Arg.conv (parse, Tech.pp)

let policy_conv =
  let parse s =
    match Ucp_policy.of_string s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Ucp_policy.pp)

let refine_conv =
  let parse s =
    match Ucp_refine.Mode.of_string s with
    | Ok m -> Ok m
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Ucp_refine.Mode.pp)

let program_arg =
  Arg.(
    required
    & opt (some program_conv) None
    & info [ "p"; "program" ] ~docv:"NAME" ~doc:"Benchmark program (see `ucp list').")

let config_arg =
  Arg.(
    value
    & opt config_conv (List.assoc "k14" Config.paper_configs)
    & info [ "k"; "config" ] ~docv:"CONFIG"
        ~doc:"Cache configuration: Table 2 id or assoc,block,capacity (default k14).")

let tech_arg =
  Arg.(
    value
    & opt tech_conv Tech.nm45
    & info [ "t"; "tech" ] ~docv:"TECH" ~doc:"Process technology: 45nm or 32nm.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulator seed.")

let policy_arg =
  Arg.(
    value
    & opt policy_conv Ucp_policy.Lru
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"Cache replacement policy: lru, fifo or plru (default lru).")

(* ------------------------------------------------------------------ *)
(* commands *)

let list_cmd =
  let run () =
    List.iter
      (fun (name, p) ->
        Printf.printf "%-4s %-14s %5d slots  %s\n" (Suite.paper_id name) name
          (Ucp_isa.Program.total_slots p)
          (Suite.size_class p))
      Suite.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the 37 workload programs.")
    Term.(const run $ const ())

(* The ablations of DESIGN.md §4 that need no sweep: insertion
   discipline and overhead budget on three use cases, and the baseline
   comparison on two. *)
let ablation_placement records_configs =
  let t =
    Table.create
      [ "use case"; "discipline"; "prefetches"; "WCET ratio"; "ACET ratio"; "exec ratio" ]
  in
  List.iter
    (fun (name, config, tech) ->
      let program = Ucp_workloads.Suite.find name in
      let model = Pipeline.model config tech in
      let base = Simulator.run program config model in
      List.iter
        (fun (label, placement, budget) ->
          let r = Optimizer.optimize ~placement ?overhead_budget:budget program config model in
          let s = Simulator.run r.Optimizer.program config model in
          Table.add_row t
            [
              Printf.sprintf "%s@%s" name (Config.id config);
              label;
              string_of_int (List.length r.Optimizer.insertions);
              Table.cell_f
                (float_of_int r.Optimizer.tau_after /. float_of_int r.Optimizer.tau_before);
              Table.cell_f
                (float_of_int (Simulator.acet s) /. float_of_int (Simulator.acet base));
              Table.cell_f
                (float_of_int s.Simulator.executed /. float_of_int base.Simulator.executed);
            ])
        [
          ("at-eviction (paper)", Optimizer.At_eviction, None);
          ("latest-effective", Optimizer.Latest_effective, None);
          ("at-eviction, no budget", Optimizer.At_eviction, Some 1000.0);
        ])
    records_configs;
  "== Ablation: insertion discipline and overhead budget ==\n" ^ Table.render t

let baseline_table () =
  let t =
    Table.create [ "use case"; "scheme"; "WCET ratio"; "ACET ratio"; "energy ratio"; "miss after" ]
  in
  List.iter
    (fun (name, config, tech) ->
      let program = Ucp_workloads.Suite.find name in
      let model = Pipeline.model config tech in
      let base_stats = Simulator.run program config model in
      let base_b = Ucp_energy.Account.energy model base_stats.Simulator.counts in
      let base_wcet =
        Wcet.tau_with_residual (Wcet.compute ~with_may:false program config model)
      in
      let row label wcet stats =
        let b = Ucp_energy.Account.energy model stats.Simulator.counts in
        Table.add_row t
          [
            Printf.sprintf "%s@%s" name (Config.id config);
            label;
            (match wcet with
            | Some x -> Table.cell_f (float_of_int x /. float_of_int base_wcet)
            | None -> "n/a");
            Table.cell_f
              (float_of_int (Simulator.acet stats) /. float_of_int (Simulator.acet base_stats));
            Table.cell_f (b.Ucp_energy.Account.total_pj /. base_b.Ucp_energy.Account.total_pj);
            Printf.sprintf "%.2f%%" (100.0 *. stats.Simulator.miss_rate);
          ]
      in
      let wcet_of p = Wcet.tau_with_residual (Wcet.compute ~with_may:false p config model) in
      let opt = (Optimizer.optimize program config model).Optimizer.program in
      row "this paper" (Some (wcet_of opt)) (Simulator.run opt config model);
      let bb = Ucp_prefetch.Baselines.bb_start program config model in
      row "bb-start [5]" (Some (wcet_of bb)) (Simulator.run bb config model);
      let lock = Ucp_prefetch.Baselines.lock_greedy program config model in
      row "locked [4,14]"
        (Some lock.Ucp_prefetch.Baselines.tau_locked)
        (Simulator.run ~locked:lock.Ucp_prefetch.Baselines.locked_blocks program config model);
      (if config.Config.assoc > 1 then
         let h = Ucp_prefetch.Baselines.lock_hybrid ~ways:1 program config model in
         row "hybrid lock+prefetch [16,2]"
           (Some h.Ucp_prefetch.Baselines.hybrid_tau)
           (Simulator.run ~pinned:h.Ucp_prefetch.Baselines.hybrid_pinned
              ~cache_config:h.Ucp_prefetch.Baselines.hybrid_config
              h.Ucp_prefetch.Baselines.hybrid_program config model));
      List.iter
        (fun (hw_name, mk) ->
          if hw_name <> "none" then
            row ("hw " ^ hw_name) None (Simulator.run ~hw:(mk ()) program config model))
        (Ucp_sim.Hw_prefetch.all_schemes ~block_bytes:config.Config.block_bytes))
    [
      ("fft1", Config.make ~assoc:2 ~block_bytes:16 ~capacity:256, Tech.nm32);
      ("st", Config.make ~assoc:2 ~block_bytes:16 ~capacity:1024, Tech.nm32);
    ];
  "== Baseline comparison (ratios vs on-demand fetching) ==\n" ^ Table.render t

let tables_cmd =
  let run () =
    print_string (Report.table1 ());
    print_newline ();
    print_string (Report.table2 ());
    print_newline ();
    print_string
      (ablation_placement
         [
           ("fft1", Config.make ~assoc:2 ~block_bytes:16 ~capacity:256, Tech.nm45);
           ("st", Config.make ~assoc:2 ~block_bytes:16 ~capacity:1024, Tech.nm45);
           ("nsichneu", Config.make ~assoc:4 ~block_bytes:16 ~capacity:2048, Tech.nm32);
         ]);
    print_newline ();
    print_string (baseline_table ())
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:
         "Print Tables 1 and 2 of the paper, the insertion-discipline and \
          overhead-budget ablation, and the baseline comparison.")
    Term.(const run $ const ())

let analyze_cmd =
  let run program config tech policy =
    let model = Pipeline.model config tech in
    let w = Wcet.compute ~policy program config model in
    let ah, am, nc = Analysis.classification_counts w.Wcet.analysis in
    Printf.printf "program            : %s\n" (Ucp_isa.Program.name program);
    Printf.printf "cache              : %s, %s, %s\n" (Config.id config)
      tech.Tech.label
      (Ucp_policy.to_string policy);
    Printf.printf "tau_w (memory)     : %d cycles\n" w.Wcet.tau;
    Printf.printf "WCET-path misses   : %d\n" (Wcet.wcet_misses w);
    Printf.printf "miss bound         : %d\n" (Analysis.miss_count_bound w.Wcet.analysis);
    Printf.printf "classification     : AH=%d AM=%d NC=%d (expanded slots)\n" ah am nc;
    Printf.printf "expanded nodes     : %d\n"
      (Ucp_cfg.Vivu.node_count (Analysis.vivu w.Wcet.analysis));
    Printf.printf "fixpoint passes    : %d\n" (Analysis.fixpoint_passes w.Wcet.analysis);
    Printf.printf "node transfers     : %d\n" (Analysis.node_transfers w.Wcet.analysis)
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Cache-aware WCET analysis of one use case.")
    Term.(const run $ program_arg $ config_arg $ tech_arg $ policy_arg)

let optimize_cmd =
  let run program config tech policy verbose =
    let model = Pipeline.model config tech in
    let r = Optimizer.optimize ~policy program config model in
    Printf.printf "tau_w              : %d -> %d cycles (%.1f%% reduction)\n"
      r.Optimizer.tau_before r.Optimizer.tau_after
      (100.0
      *. (1.0
         -. (float_of_int r.Optimizer.tau_after /. float_of_int r.Optimizer.tau_before)));
    Printf.printf "prefetches         : %d inserted, %d candidates rolled back\n"
      (List.length r.Optimizer.insertions)
      r.Optimizer.rejected;
    Printf.printf "analysis rounds    : %d\n" r.Optimizer.rounds;
    if verbose then
      List.iteri
        (fun i (ins : Optimizer.insertion) ->
          Printf.printf "  #%-3d pf(uid %d) -> block of uid %d  gain=%d\n" i
            ins.Optimizer.prefetch_uid ins.Optimizer.target_uid ins.Optimizer.est_gain)
        r.Optimizer.insertions
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"List every insertion.")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Run the WCET-safe prefetch optimization on one use case.")
    Term.(const run $ program_arg $ config_arg $ tech_arg $ policy_arg $ verbose)

let simulate_cmd =
  let run program config tech policy seed optimized =
    let model = Pipeline.model config tech in
    let program =
      if optimized then
        (Optimizer.optimize ~policy program config model).Optimizer.program
      else program
    in
    let stats = Simulator.run ~seed ~policy program config model in
    let b = Ucp_energy.Account.energy model stats.Simulator.counts in
    Printf.printf "executed           : %d instructions (%d prefetches)\n"
      stats.Simulator.executed stats.Simulator.executed_prefetches;
    Printf.printf "cycles (ACET)      : %d\n" (Simulator.acet stats);
    Printf.printf "miss rate          : %.2f%%\n" (100.0 *. stats.Simulator.miss_rate);
    Printf.printf "late-prefetch stall: %d cycles\n"
      stats.Simulator.late_prefetch_stall_cycles;
    Format.printf "energy             : %a@." Ucp_energy.Account.pp_breakdown b
  in
  let optimized =
    Arg.(value & flag & info [ "O"; "optimized" ] ~doc:"Simulate the optimized binary.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Trace-simulate one use case (ACET, miss rate, energy).")
    Term.(
      const run $ program_arg $ config_arg $ tech_arg $ policy_arg $ seed_arg
      $ optimized)

let baselines_cmd =
  let run program config tech seed =
    let model = Pipeline.model config tech in
    let t =
      Ucp_util.Table.create
        [ "scheme"; "wcet"; "acet"; "miss"; "energy (pJ)"; "extra dram" ]
    in
    let row name wcet stats =
      let b = Ucp_energy.Account.energy model stats.Simulator.counts in
      Ucp_util.Table.add_row t
        [
          name;
          (match wcet with Some x -> string_of_int x | None -> "n/a");
          string_of_int (Simulator.acet stats);
          Printf.sprintf "%.2f%%" (100.0 *. stats.Simulator.miss_rate);
          Printf.sprintf "%.0f" b.Ucp_energy.Account.total_pj;
          string_of_int stats.Simulator.counts.Ucp_energy.Account.prefetch_dram_reads;
        ]
    in
    let wcet_of p = Wcet.tau_with_residual (Wcet.compute ~with_may:false p config model) in
    row "on-demand" (Some (wcet_of program)) (Simulator.run ~seed program config model);
    let opt = (Optimizer.optimize program config model).Optimizer.program in
    row "this paper" (Some (wcet_of opt)) (Simulator.run ~seed opt config model);
    let streaming =
      (Optimizer.optimize ~placement:Optimizer.Latest_effective program config model)
        .Optimizer.program
    in
    row "latest-effective (ablation)" (Some (wcet_of streaming))
      (Simulator.run ~seed streaming config model);
    let bb = Baselines.bb_start program config model in
    row "bb-start [5]" (Some (wcet_of bb)) (Simulator.run ~seed bb config model);
    let lock = Baselines.lock_greedy program config model in
    row "locked cache [4,14]"
      (Some lock.Baselines.tau_locked)
      (Simulator.run ~seed ~locked:lock.Baselines.locked_blocks program config model);
    if config.Config.assoc > 1 then begin
      let h = Baselines.lock_hybrid ~ways:1 program config model in
      row "hybrid lock+prefetch [16,2]"
        (Some h.Baselines.hybrid_tau)
        (Simulator.run ~seed ~pinned:h.Baselines.hybrid_pinned
           ~cache_config:h.Baselines.hybrid_config h.Baselines.hybrid_program config
           model)
    end;
    List.iter
      (fun (name, mk) ->
        if name <> "none" then
          row ("hw " ^ name) None (Simulator.run ~seed ~hw:(mk ()) program config model))
      (Ucp_sim.Hw_prefetch.all_schemes ~block_bytes:config.Config.block_bytes);
    Ucp_util.Table.print t
  in
  Cmd.v
    (Cmd.info "baselines"
       ~doc:"Compare the paper's technique against software and hardware baselines.")
    Term.(const run $ program_arg $ config_arg $ tech_arg $ seed_arg)

let dump_cmd =
  let run program config tech =
    let model = Pipeline.model config tech in
    let w = Wcet.compute program config model in
    let analysis = w.Wcet.analysis in
    let vivu = Analysis.vivu analysis in
    Format.printf "%a@." Ucp_isa.Program.pp program;
    let layout = Analysis.layout analysis in
    Printf.printf "layout: %d slots in %d memory blocks

"
      (Ucp_isa.Program.total_slots program)
      (Ucp_isa.Layout.code_mem_blocks layout);
    Printf.printf "WCET path (per reference: block, classification):
";
    let last_node = ref (-1) in
    Array.iter
      (fun (node, pos) ->
        if node <> !last_node then begin
          last_node := node;
          Format.printf "@.%a n_w=%d: " (Ucp_cfg.Vivu.pp_node vivu) node w.Wcet.n_w.(node)
        end;
        Format.printf "%s "
          (Ucp_wcet.Classification.to_string (Analysis.classif analysis ~node ~pos)))
      (Wcet.path_refs w);
    Format.printf "@.@.tau_w = %d cycles@." w.Wcet.tau
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:"Print a program listing, its layout and the classified WCET path.")
    Term.(const run $ program_arg $ config_arg $ tech_arg)

let ipet_cmd =
  let run program config tech =
    let model = Pipeline.model config tech in
    let w = Wcet.compute program config model in
    let t0 = Ucp_util.Clock.now_s () in
    let expanded = Ucp_wcet.Ipet.solve w in
    let t_expanded = Ucp_util.Clock.now_s () -. t0 in
    let t0 = Ucp_util.Clock.now_s () in
    let cfg_level = Ucp_wcet.Ipet.solve_cfg w in
    let t_cfg = Ucp_util.Clock.now_s () -. t0 in
    Printf.printf "longest path (DAG)     : %d cycles
" w.Wcet.tau;
    Printf.printf "IPET ILP (expanded)    : %d cycles (%.3fs)  agree=%b
"
      expanded.Ucp_wcet.Ipet.tau t_expanded
      (expanded.Ucp_wcet.Ipet.tau = w.Wcet.tau);
    Printf.printf "IPET ILP (block-level) : %d cycles (%.3fs)  slack=+%.1f%%
"
      cfg_level.Ucp_wcet.Ipet.tau t_cfg
      (100.0
      *. (float_of_int (cfg_level.Ucp_wcet.Ipet.tau - w.Wcet.tau)
         /. float_of_int w.Wcet.tau))
  in
  Cmd.v
    (Cmd.info "ipet"
       ~doc:"Compare the longest-path WCET with the expanded and block-level IPET ILPs.")
    Term.(const run $ program_arg $ config_arg $ tech_arg)

let verify_cmd =
  let run program config tech policy seed =
    let model = Pipeline.model config tech in
    Printf.printf "use case           : %s, %s, %s, %s\n"
      (Ucp_isa.Program.name program) (Config.id config) tech.Tech.label
      (Ucp_policy.to_string policy);
    let w0 = Wcet.compute ~with_may:true ~policy program config model in
    let r = Optimizer.optimize ~initial:w0 program config model in
    let w1 =
      Wcet.compute ~with_may:true ~policy r.Optimizer.program config model
    in
    let failed = ref 0 in
    let check name result =
      match result with
      | Ok () -> Printf.printf "  [pass] %s\n" name
      | Error msg ->
        incr failed;
        Printf.printf "  [FAIL] %s: %s\n" name msg
    in
    check "ipet-certificate (original)" (Ucp_verify.certify_ipet w0);
    check "ipet-certificate (optimized)" (Ucp_verify.certify_ipet w1);
    check "witness-replay (original)" (Ucp_verify.replay_witness ~seed w0);
    check "witness-replay (optimized)" (Ucp_verify.replay_witness ~seed w1);
    check "optimizer-audit-trail"
      (Ucp_verify.audit_trail ~original:w0 ~optimized:w1 r);
    if !failed = 0 then
      Printf.printf "all certification obligations hold (tau %d -> %d)\n"
        (Wcet.tau_with_residual w0) (Wcet.tau_with_residual w1)
    else begin
      Printf.printf "%d obligation%s failed\n" !failed
        (if !failed = 1 then "" else "s");
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Independently certify one use case: LP/IPET duality certificates, \
          WCET witness replay on the concrete simulator, and the optimizer's \
          audit trail (Theorem 1, Eq. 5-9).  Exits nonzero if any obligation \
          fails.")
    Term.(const run $ program_arg $ config_arg $ tech_arg $ policy_arg $ seed_arg)

let experiment_cmd =
  let run full figure jobs timeout checkpoint resume programs configs techs
      policies audit refine trace heartbeat metrics sweep_out =
    (* fault-injection hooks for robustness testing: parsed up front so a
       typo in UCP_FAULT aborts before the sweep starts *)
    (try Ucp_core.Fault.load_env ()
     with Invalid_argument msg ->
       Printf.eprintf "ucp: %s\n" msg;
       exit 124);
    let configs =
      match configs with
      | Some ids ->
        List.map
          (fun id ->
            match List.assoc_opt id Config.paper_configs with
            | Some c -> (id, c)
            | None ->
              Printf.eprintf "ucp: unknown configuration %S (k1..k36)\n" id;
              exit 124)
          ids
      | None ->
        if full then Experiments.default_configs else Experiments.quick_configs
    in
    let programs =
      match programs with
      | None -> Suite.all
      | Some names ->
        List.map
          (fun n ->
            match List.assoc_opt n Suite.all with
            | Some p -> (n, p)
            | None ->
              Printf.eprintf "ucp: unknown program %S (try `ucp list')\n" n;
              exit 124)
          names
    in
    let jobs =
      match jobs with
      | Some j -> j
      | None -> (
        try Ucp_core.Parallel.default_jobs ()
        with Invalid_argument msg ->
          Printf.eprintf "ucp: %s\n" msg;
          exit 124)
    in
    if resume && checkpoint = None then begin
      Printf.eprintf "ucp: --resume requires --checkpoint PATH\n";
      exit 124
    end;
    let progress ~done_ ~total =
      Printf.eprintf "\r[sweep] %d/%d use cases%!" done_ total
    in
    (* probe output paths before the (possibly hours-long) sweep so a
       bad --trace/--sweep-out path fails immediately instead of
       discarding the finished run; the real writes are atomic or
       whole-file, so an existing file is never left half-written *)
    List.iter
      (fun path ->
        match path with
        | None -> ()
        | Some path -> (
          try close_out (open_out_gen [ Open_append; Open_creat ] 0o644 path)
          with Sys_error msg ->
            Printf.eprintf "ucp: %s\n" msg;
            exit 124))
      [ trace; sweep_out ];
    (* tracing implies metrics so the exported spans and the counter
       table describe the same run *)
    let metrics_on = metrics || trace <> None in
    if metrics_on then Ucp_obs.Metrics.enable ();
    if trace <> None then Ucp_obs.Trace.start ();
    let s =
      try
        Ucp_core.Parallel.sweep ~programs ~configs ?techs ~policies ~audit
          ~refine ~jobs ~progress ?heartbeat ?timeout ?checkpoint ~resume ()
      with Ucp_core.Checkpoint.Bad_journal _ as e ->
        Printf.eprintf "ucp: %s\n" (Printexc.to_string e);
        exit 2
    in
    Ucp_obs.Trace.stop ();
    (match trace with
    | None -> ()
    | Some path ->
      Ucp_obs.Trace.export path;
      Printf.eprintf "[trace] %d spans -> %s\n%!"
        (List.length (Ucp_obs.Trace.spans ()))
        path);
    Printf.eprintf "\r[sweep] %d use cases on %d worker%s in %.1fs wall\n%!"
      s.Ucp_core.Parallel.cases s.Ucp_core.Parallel.jobs
      (if s.Ucp_core.Parallel.jobs = 1 then "" else "s")
      s.Ucp_core.Parallel.wall_s;
    if s.Ucp_core.Parallel.resumed > 0 then
      Printf.eprintf "[sweep] %d case%s replayed from checkpoint\n%!"
        s.Ucp_core.Parallel.resumed
        (if s.Ucp_core.Parallel.resumed = 1 then "" else "s");
    let records = s.Ucp_core.Parallel.records in
    let metrics_dump = if metrics_on then Ucp_obs.Metrics.dump () else [] in
    (match sweep_out with
    | None -> ()
    | Some path ->
      let jsonl =
        Report.sweep_jsonl ~wall_s:s.Ucp_core.Parallel.wall_s
          ~jobs:s.Ucp_core.Parallel.jobs ~outcomes:s.Ucp_core.Parallel.results
          ?metrics:(if metrics_dump = [] then None else Some metrics_dump)
          records
      in
      Ucp_core.Checkpoint.write_atomic ~path jsonl;
      Printf.eprintf "[sweep] JSONL summary -> %s\n%!" path);
    let out =
      match figure with
      | None -> Report.all records
      | Some 3 -> Report.figure3 records
      | Some 4 -> Report.figure4 records
      | Some 5 -> Report.figure5 records
      | Some 7 -> Report.figure7 records
      | Some 8 -> Report.figure8 records
      | Some n -> Printf.sprintf "no such figure: %d (3,4,5,7,8)\n" n
    in
    print_string out;
    prerr_string (Report.outcome_summary s.Ucp_core.Parallel.results);
    if List.length policies > 1 then
      prerr_string
        (Report.policy_outcome_summary ~policies s.Ucp_core.Parallel.results);
    if metrics_on then begin
      prerr_string (Report.metrics_table metrics_dump);
      if s.Ucp_core.Parallel.workers <> [||] then
        prerr_string
          (Report.worker_table ~wall_s:s.Ucp_core.Parallel.wall_s
             s.Ucp_core.Parallel.workers)
    end;
    if s.Ucp_core.Parallel.failures <> [] then exit 3
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"All 36 configurations (2664 use cases) as in the paper.")
  in
  let figure =
    Arg.(
      value
      & opt (some int) None
      & info [ "figure" ] ~docv:"N" ~doc:"Reproduce a single figure (3,4,5,7,8).")
  in
  let jobs_conv =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some _ | None -> Error (`Msg "expected a positive worker count")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let jobs =
    Arg.(
      value
      & opt (some jobs_conv) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the sweep (default: $(b,UCP_JOBS) if set, else \
             the recommended domain count).")
  in
  let timeout_conv =
    let parse s =
      match float_of_string_opt s with
      | Some t when t > 0.0 -> Ok t
      | Some _ | None -> Error (`Msg "expected a positive number of seconds")
    in
    Arg.conv (parse, Format.pp_print_float)
  in
  let timeout =
    Arg.(
      value
      & opt (some timeout_conv) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Per-use-case deadline in seconds; a case that overruns it is \
             reported as timed out instead of blocking the sweep (default: \
             none).")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"PATH"
          ~doc:
            "Append each finished use case to a JSONL journal at $(docv), \
             fsynced per record, so an interrupted sweep can be resumed.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay completed cases from the $(b,--checkpoint) journal and \
             evaluate only the rest; the journal must match the sweep grid.")
  in
  let programs =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "programs" ] ~docv:"NAMES"
          ~doc:"Comma-separated subset of workload programs to sweep.")
  in
  let configs =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "configs" ] ~docv:"IDS"
          ~doc:
            "Comma-separated subset of Table 2 configurations (k1..k36); \
             overrides $(b,--full)/quick selection.")
  in
  let techs =
    Arg.(
      value
      & opt (some (list tech_conv)) None
      & info [ "techs" ] ~docv:"TECHS"
          ~doc:"Comma-separated process technologies (default: 45nm,32nm).")
  in
  let policies =
    Arg.(
      value
      & opt (list policy_conv) [ Ucp_policy.Lru ]
      & info [ "policies" ] ~docv:"POLICIES"
          ~doc:
            "Comma-separated replacement policies (lru, fifo, plru); each \
             multiplies the use-case grid (default lru).")
  in
  let audit_conv =
    let parse s =
      match Ucp_verify.mode_of_string s with
      | Ok m -> Ok m
      | Error msg -> Error (`Msg msg)
    in
    Arg.conv
      (parse, fun ppf m -> Format.pp_print_string ppf (Ucp_verify.mode_to_string m))
  in
  let audit =
    Arg.(
      value
      & opt audit_conv Ucp_verify.Off
      & info [ "audit" ] ~docv:"MODE"
          ~doc:
            "Certification audit of the sweep: $(b,off) (default), \
             $(b,sample:N) (deterministic 1-in-N of the use cases, stable \
             across resume) or $(b,full).  An audited case whose certificate \
             fails any obligation is demoted to an invariant violation naming \
             the obligation.")
  in
  let refine =
    Arg.(
      value
      & opt refine_conv Ucp_refine.Mode.Nc
      & info [ "refine" ] ~docv:"MODE"
          ~doc:
            "Exact classification refinement after the abstract fixpoint: \
             $(b,off), $(b,nc) (default — per-set product exploration of the \
             not-classified references, reclassifying the provable ones) or \
             $(b,full) (additionally cross-checks every abstract \
             always-hit/always-miss against the exploration).  The base \
             record fields stay unrefined; refined bounds ride along as \
             $(b,refine_*) fields.  The mode is part of the checkpoint \
             fingerprint.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a span trace of the sweep (pipeline stages, fixpoint \
             passes, simplex/ILP solves, optimizer rounds, audit obligations) \
             and write it to $(docv) as Chrome trace_event JSON — load it in \
             Perfetto or inspect it with $(b,ucp trace).  Implies \
             $(b,--metrics).")
  in
  let heartbeat =
    Arg.(
      value
      & opt (some timeout_conv) None
      & info [ "heartbeat" ] ~docv:"SECS"
          ~doc:
            "Print a liveness line (cases done, throughput, ETA) to stderr \
             every $(docv) seconds while the sweep runs.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Collect runtime counters (simplex pivots, ILP nodes, fixpoint \
             iterations, cache fetches per policy, per-case durations, GC \
             deltas) and print them after the sweep; with $(b,--sweep-out) \
             they are also embedded in the JSONL summary line.")
  in
  let sweep_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "sweep-out" ] ~docv:"PATH"
          ~doc:
            "Write the machine-readable sweep JSONL (one record per use case \
             plus a summary line) to $(docv).")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run the evaluation sweep and print the paper's figures.")
    Term.(
      const run $ full $ figure $ jobs $ timeout $ checkpoint $ resume $ programs
      $ configs $ techs $ policies $ audit $ refine $ trace $ heartbeat
      $ metrics $ sweep_out)

(* ------------------------------------------------------------------ *)
(* ucp fuzz: generative differential fuzzing campaigns *)

let fuzz_cmd =
  let module Campaign = Ucp_fuzz.Campaign in
  let run seed count classes policies configs full techs refine refine_full_every
      jobs timeout corpus chaos chaos_serve out replay =
    Ucp_obs.Metrics.enable ();
    let out_channel, close_out_channel =
      match out with
      | None -> (stdout, fun () -> ())
      | Some path -> (
        try
          let oc = open_out path in
          (oc, fun () -> close_out oc)
        with Sys_error msg ->
          Printf.eprintf "ucp: %s\n" msg;
          exit 124)
    in
    let emit line =
      output_string out_channel line;
      output_char out_channel '\n'
    in
    match replay with
    | Some dir ->
      (* corpus replay: the CI pin over checked-in reproducers *)
      let ok, failures = Campaign.replay_corpus ~emit ~dir () in
      close_out_channel ();
      Printf.eprintf "[fuzz] corpus replay: %d ok, %d failed\n" ok
        (List.length failures);
      List.iter
        (fun (path, msg) -> Printf.eprintf "[fuzz]   %s: %s\n" path msg)
        failures;
      if failures <> [] then exit 1
    | None ->
      let classes =
        List.iter
          (fun c ->
            if Ucp_workloads.Generate.find_class c = None then begin
              Printf.eprintf "ucp: unknown size class %S (s | m | l)\n" c;
              exit 124
            end)
          classes;
        classes
      in
      let configs =
        match configs with
        | Some ids ->
          List.map
            (fun id ->
              match List.assoc_opt id Config.paper_configs with
              | Some c -> (id, c)
              | None ->
                Printf.eprintf "ucp: unknown configuration %S (k1..k36)\n" id;
                exit 124)
            ids
        | None ->
          if full then Experiments.default_configs else Experiments.quick_configs
      in
      if count < 1 then begin
        Printf.eprintf "ucp: --count must be positive\n";
        exit 124
      end;
      let chaos_dir =
        if not chaos_serve then None
        else begin
          let dir =
            Filename.concat (Filename.get_temp_dir_name ())
              (Printf.sprintf "ucp-fuzz-%d" (Unix.getpid ()))
          in
          (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
          Some dir
        end
      in
      let cfg =
        {
          Campaign.c_seed = seed;
          c_count = count;
          c_classes = classes;
          c_policies = policies;
          c_configs = configs;
          c_techs = techs;
          c_refine = refine;
          c_refine_full_every = refine_full_every;
          c_jobs = jobs;
          c_timeout = timeout;
          c_corpus = corpus;
          c_chaos = chaos;
          c_serve = chaos_dir;
        }
      in
      let progress ~done_ ~total =
        Printf.eprintf "\r[fuzz] %d/%d cases%!" done_ total
      in
      let s = Campaign.run ~emit ~progress cfg in
      Printf.eprintf "\r[fuzz] %d cases: %d pass, %d findings (%d distinct), %d caught, %d timeouts, %d failed"
        s.Campaign.s_cases s.Campaign.s_pass s.Campaign.s_findings
        s.Campaign.s_distinct s.Campaign.s_caught s.Campaign.s_timeouts
        s.Campaign.s_failed;
      if s.Campaign.s_chaos_total > 0 then
        Printf.eprintf ", chaos %d/%d healed" s.Campaign.s_chaos_ok
          s.Campaign.s_chaos_total;
      prerr_newline ();
      List.iter (fun p -> Printf.eprintf "[fuzz] reproducer: %s\n" p) s.Campaign.s_corpus;
      close_out_channel ();
      (match chaos_dir with
      | Some dir when Campaign.clean s ->
        ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))
      | Some dir -> Printf.eprintf "[fuzz] daemon scratch kept at %s\n" dir
      | None -> ());
      (* distinct exit code for findings so CI can tell "the fuzzer
         found a soundness bug" from an infrastructure error *)
      if not (Campaign.clean s) then exit 4
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Campaign seed.  The whole plan — program seeds, size classes, \
             use-case axes, oracle choices — derives from it, so the same \
             seed replays record for record.")
  in
  let count =
    Arg.(
      value & opt int Campaign.default.Campaign.c_count
      & info [ "count" ] ~docv:"N" ~doc:"Generated programs to run (default 200).")
  in
  let classes =
    Arg.(
      value
      & opt (list string) Campaign.default.Campaign.c_classes
      & info [ "classes" ] ~docv:"CLS"
          ~doc:"Generator size classes to draw from: $(b,s), $(b,m), $(b,l).")
  in
  let policies =
    Arg.(
      value
      & opt (list policy_conv) Ucp_policy.all
      & info [ "policies" ] ~docv:"P"
          ~doc:
            "Replacement policies to fuzz (default all three: lru, fifo, \
             plru; plru degrades to lru on non-power-of-two associativity).")
  in
  let configs =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "configs" ] ~docv:"IDS"
          ~doc:
            "Cache configurations (Table 2 ids).  Overrides $(b,--full)/quick \
             selection.")
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:"Draw from all 36 Table 2 configurations instead of the quick 12.")
  in
  let techs =
    Arg.(
      value
      & opt (list tech_conv) [ Tech.nm45 ]
      & info [ "techs" ] ~docv:"T" ~doc:"Technology nodes (default 45nm).")
  in
  let refine =
    Arg.(
      value
      & opt refine_conv Ucp_refine.Mode.Nc
      & info [ "refine" ] ~docv:"MODE"
          ~doc:"Refinement mode of the end-to-end oracle (default nc).")
  in
  let refine_full_every =
    Arg.(
      value
      & opt int Campaign.default.Campaign.c_refine_full_every
      & info [ "refine-full-every" ] ~docv:"N"
          ~doc:
            "Expected period of the Mode.Full exploration cross-check oracle \
             (roughly one case in $(docv) runs it; 0 disables, default 4).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains (default: all cores).")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) (Some 60.)
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:"Per-case cooperative deadline (default 60).")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Deposit shrunk reproducers here (one single-line JSON file per \
             distinct finding; created if missing).")
  in
  let chaos =
    Arg.(
      value & opt int 0
      & info [ "chaos" ] ~docv:"N"
          ~doc:
            "Run $(docv) injected-fault legs (alternating corrupt-cert and \
             corrupt-refine): the audit must catch every one; each catch is \
             shrunk and deposited like a finding.")
  in
  let chaos_serve =
    Arg.(
      value & flag
      & info [ "chaos-serve" ]
          ~doc:
            "Also run the live-daemon chaos leg: kill-worker, corrupt-store \
             and stall-request are injected against an in-process analysis \
             daemon whose answers must stay byte-identical to batch records.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"PATH"
          ~doc:"Write the campaign JSONL there instead of stdout.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"DIR"
          ~doc:
            "Replay every corpus entry under $(docv) instead of fuzzing: each \
             stored oracle must reproduce its recorded signature.  Exits 1 on \
             any mismatch.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Generative differential fuzzing: seeded random DSL programs driven \
          through the abstract-vs-concrete classification oracle, the full \
          audited pipeline, the Mode.Full exploration cross-check and \
          batch-vs-daemon identity, with shrinking reproducers and chaos \
          campaigns.  Exits 0 when clean, 4 on findings.")
    Term.(
      const run $ seed $ count $ classes $ policies $ configs $ full $ techs
      $ refine $ refine_full_every $ jobs $ timeout $ corpus $ chaos
      $ chaos_serve $ out $ replay)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket of the analysis daemon.")

let serve_cmd =
  let run socket store jobs cache queue timeout refine access_log slow_log
      slow_threshold trace trace_seed =
    (try Ucp_core.Fault.load_env ()
     with Invalid_argument msg ->
       Printf.eprintf "ucp: %s\n" msg;
       exit 124);
    let cfg =
      {
        Ucp_serve.Server.socket;
        store_dir = store;
        jobs;
        cache_capacity = cache;
        queue_limit = queue;
        timeout;
        refine;
        access_log;
        slow_log;
        slow_threshold_s = slow_threshold;
        trace;
        trace_seed;
      }
    in
    match Ucp_serve.Server.run cfg with
    | () -> ()  (* graceful drain: exit 0 *)
    | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "ucp: serve: %s: %s %s\n" fn (Unix.error_message e) arg;
      exit 1
    | exception Invalid_argument msg ->
      Printf.eprintf "ucp: %s\n" msg;
      exit 124
  in
  let store =
    Arg.(
      required
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Result store directory (created if missing) — the daemon's only \
             persistent state.")
  in
  let jobs =
    Arg.(
      value & opt int 2
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains for cold evaluations (default 2).")
  in
  let cache =
    Arg.(
      value & opt int 64
      & info [ "cache" ] ~docv:"N"
          ~doc:"In-memory LRU result-cache entries; 0 disables it (default 64).")
  in
  let queue =
    Arg.(
      value & opt int 32
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission bound: cold evaluations in flight before further cold \
             queries are shed with a retry hint (default 32).  Cache and \
             store hits are never shed.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:"Per-case cooperative deadline for daemon-side evaluation.")
  in
  let refine =
    Arg.(
      value
      & opt refine_conv Ucp_refine.Mode.Nc
      & info [ "refine" ] ~docv:"MODE"
          ~doc:
            "Exact classification refinement for cold evaluations: $(b,off), \
             $(b,nc) (default) or $(b,full).  Part of the store's content \
             address, so entries computed under different modes never alias.")
  in
  let access_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Append one JSON line per request: trace id, case id, tier \
             (cache/store/cold/shed), outcome, latency, queue depth.  \
             Deterministic modulo the ts/latency_s fields.")
  in
  let slow_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "slow-log" ] ~docv:"FILE"
          ~doc:
            "Append requests at or above --slow-threshold as JSON lines (same \
             shape as the access log, plus the threshold).")
  in
  let slow_threshold =
    Arg.(
      value & opt float 1.0
      & info [ "slow-threshold" ] ~docv:"SECS"
          ~doc:"Slow-query threshold in seconds (default 1.0).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record spans while serving and write a Chrome trace (open in \
             Perfetto) on drain.  Every span of a request carries the \
             request's trace id, so one request reads as one connected tree.  \
             The span buffer is a bounded ring: see \
             trace_spans_dropped_total.")
  in
  let trace_seed =
    Arg.(
      value & opt int 0
      & info [ "trace-seed" ] ~docv:"SEED"
          ~doc:
            "Seed of the deterministic trace ids assigned to requests that \
             arrive without one (default 0).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the crash-only analysis daemon: answers use-case queries from an \
          in-memory LRU cache, a self-healing content-addressed store, or cold \
          evaluation on a worker pool.  SIGTERM/SIGINT (or `ucp query \
          --shutdown') drains in-flight requests and exits 0; after kill -9 it \
          recovers from the store alone.")
    Term.(
      const run $ socket_arg $ store $ jobs $ cache $ queue $ timeout $ refine
      $ access_log $ slow_log $ slow_threshold $ trace $ trace_seed)

let query_cmd =
  let run socket ids health metrics shutdown retries seed =
    if ids = [] && (not health) && (not metrics) && not shutdown then begin
      Printf.eprintf
        "ucp: query: nothing to do (give case IDs, --health, --metrics or --shutdown)\n";
      exit 124
    end;
    let failed = ref false in
    let module P = Ucp_serve.Protocol in
    let source = function
      | P.Memory -> "memory"
      | P.Store -> "store"
      | P.Computed -> "computed"
    in
    List.iteri
      (fun index id ->
        (* client-assigned trace id, deterministic from (--seed, index):
           identically seeded runs stamp identical ids on the daemon's
           access log, which is what the CI byte-compares *)
        let ctx = Ucp_obs.Ctx.derive ~seed ~index in
        let trace_id = Some (Ucp_obs.Ctx.trace_hex ctx) in
        match
          Ucp_serve.Client.query ~retries ~seed ~socket (P.Case { id; trace_id })
        with
        | Ok (P.Record { source = src; json; trace_id = echoed; _ }) ->
          Printf.eprintf "[query] %s answered from %s trace=%s\n%!" id (source src)
            (Option.value ~default:"-" echoed);
          print_string json;
          print_newline ()
        | Ok (P.Failed { message; _ }) ->
          Printf.eprintf "ucp: query %s: %s\n" id message;
          failed := true
        | Ok (P.Retry { reason; _ }) ->
          Printf.eprintf "ucp: query %s: still shedding load (%s)\n" id reason;
          failed := true
        | Ok (P.Health_stats _ | P.Metrics_text _ | P.Bye) ->
          Printf.eprintf "ucp: query %s: unexpected response kind\n" id;
          failed := true
        | Error msg ->
          Printf.eprintf "ucp: query %s: %s\n" id msg;
          failed := true)
      ids;
    if health then begin
      match Ucp_serve.Client.query ~retries ~seed ~socket P.Health with
      | Ok (P.Health_stats { counters; gauges; hists }) ->
        List.iter (fun (k, v) -> Printf.printf "%s=%d\n" k v) counters;
        List.iter (fun (k, x) -> Printf.printf "%s=%s\n" k (Ucp_obs.Expo.fmt_float x)) gauges;
        List.iter
          (fun (k, { P.hs_count; hs_sum }) ->
            Printf.printf "%s_count=%d\n%s_sum=%s\n" k hs_count k
              (Ucp_obs.Expo.fmt_float hs_sum))
          hists
      | Ok _ ->
        Printf.eprintf "ucp: health: unexpected response kind\n";
        failed := true
      | Error msg ->
        Printf.eprintf "ucp: health: %s\n" msg;
        failed := true
    end;
    if metrics then begin
      match Ucp_serve.Client.query ~retries ~seed ~socket P.Metrics with
      | Ok (P.Metrics_text text) -> print_string text
      | Ok _ ->
        Printf.eprintf "ucp: metrics: unexpected response kind\n";
        failed := true
      | Error msg ->
        Printf.eprintf "ucp: metrics: %s\n" msg;
        failed := true
    end;
    if shutdown then begin
      match Ucp_serve.Client.query ~socket P.Shutdown with
      | Ok P.Bye -> Printf.eprintf "[query] daemon shutting down\n%!"
      | Ok _ ->
        Printf.eprintf "ucp: shutdown: unexpected response kind\n";
        failed := true
      | Error msg ->
        Printf.eprintf "ucp: shutdown: %s\n" msg;
        failed := true
    end;
    if !failed then exit 1
  in
  let ids =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID"
          ~doc:
            "Use-case ids (<program>:<config>:<tech>:<policy>, e.g. \
             fft1:k14:45nm:lru).  Each answer is printed to stdout as the \
             same JSONL record a batch `ucp experiment --sweep-out' would \
             emit; the answer's source (memory/store/computed) goes to \
             stderr.")
  in
  let health =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "Print the daemon's statistics (cache hits/misses, queue depth, \
             shed count, worker restarts, quarantined store entries, metric \
             counters) as key=value lines.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print the daemon's full metrics registry (counters, gauges, \
             histograms with buckets) as Prometheus text-format exposition, \
             including the per-tier serve_latency_s histograms.")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Ask the daemon to drain and exit (never retried).")
  in
  let retries =
    Arg.(
      value & opt int 8
      & info [ "retries" ] ~docv:"N"
          ~doc:"Attempts for idempotent queries before giving up (default 8).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Seed of the deterministic retry-backoff jitter and of the \
             client-assigned trace ids (default 1).")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Query the analysis daemon.  Idempotent queries retry through daemon \
          restarts and load shedding with deterministic exponential backoff; \
          each case query carries a deterministic client-assigned trace id \
          that the daemon echoes and stamps on its spans and log lines.  \
          Exits 0 when everything was answered, 1 otherwise, 124 on bad \
          arguments.")
    Term.(
      const run $ socket_arg $ ids $ health $ metrics $ shutdown $ retries $ seed)

let trace_cmd =
  let run file top =
    let spans =
      match Ucp_obs.Trace.parse_file file with
      | Ok spans -> spans
      | Error msg ->
        Printf.eprintf "ucp: %s: %s\n" file msg;
        exit 1
      | exception Sys_error msg ->
        Printf.eprintf "ucp: %s\n" msg;
        exit 1
    in
    (* per-name aggregate *)
    let by_name = Hashtbl.create 16 in
    List.iter
      (fun (s : Ucp_obs.Trace.span) ->
        let prev = try Hashtbl.find by_name s.Ucp_obs.Trace.span_name with Not_found -> [] in
        Hashtbl.replace by_name s.Ucp_obs.Trace.span_name (s :: prev))
      spans;
    let names =
      List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_name [])
    in
    let agg = Ucp_util.Table.create [ "span"; "count"; "total (ms)"; "mean (ms)"; "max (ms)" ] in
    List.iter
      (fun name ->
        let ss = Hashtbl.find by_name name in
        let n = List.length ss in
        let total =
          List.fold_left (fun acc s -> acc +. s.Ucp_obs.Trace.dur_us) 0.0 ss
        in
        let max_ =
          List.fold_left (fun acc s -> Float.max acc s.Ucp_obs.Trace.dur_us) 0.0 ss
        in
        Ucp_util.Table.add_row agg
          [
            name;
            string_of_int n;
            Printf.sprintf "%.2f" (total /. 1e3);
            Printf.sprintf "%.3f" (total /. 1e3 /. float_of_int n);
            Printf.sprintf "%.2f" (max_ /. 1e3);
          ])
      names;
    Printf.printf "%d spans in %s\n\n%s\n" (List.length spans) file
      (Ucp_util.Table.render agg);
    (* integer span-arg totals, e.g. the simplex pivot count: lets a
       recorded trace be cross-checked against the metrics counters *)
    let arg_totals = Hashtbl.create 16 in
    List.iter
      (fun (s : Ucp_obs.Trace.span) ->
        List.iter
          (fun (k, v) ->
            match v with
            | Ucp_obs.Trace.Int n ->
              let key = s.Ucp_obs.Trace.span_name ^ "." ^ k in
              Hashtbl.replace arg_totals key
                (n + try Hashtbl.find arg_totals key with Not_found -> 0)
            | Ucp_obs.Trace.Float _ | Ucp_obs.Trace.Str _ -> ())
          s.Ucp_obs.Trace.args)
      spans;
    let totals =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) arg_totals [])
    in
    if totals <> [] then begin
      print_string "span-arg totals:\n";
      List.iter (fun (k, v) -> Printf.printf "  %s=%d\n" k v) totals;
      print_newline ()
    end;
    (* slowest individual spans per name *)
    let render_arg (k, v) =
      match v with
      | Ucp_obs.Trace.Int n -> Printf.sprintf "%s=%d" k n
      | Ucp_obs.Trace.Float x -> Printf.sprintf "%s=%g" k x
      | Ucp_obs.Trace.Str s -> Printf.sprintf "%s=%s" k s
    in
    let slow =
      Ucp_util.Table.create [ "span"; "dur (ms)"; "start (ms)"; "tid"; "args" ]
    in
    List.iter
      (fun name ->
        let ss =
          List.sort
            (fun (a : Ucp_obs.Trace.span) b ->
              compare b.Ucp_obs.Trace.dur_us a.Ucp_obs.Trace.dur_us)
            (Hashtbl.find by_name name)
        in
        List.iteri
          (fun i (s : Ucp_obs.Trace.span) ->
            if i < top then
              Ucp_util.Table.add_row slow
                [
                  name;
                  Printf.sprintf "%.3f" (s.Ucp_obs.Trace.dur_us /. 1e3);
                  Printf.sprintf "%.2f" (s.Ucp_obs.Trace.ts_us /. 1e3);
                  string_of_int s.Ucp_obs.Trace.tid;
                  String.concat " " (List.map render_arg s.Ucp_obs.Trace.args);
                ])
          ss)
      names;
    Printf.printf "top %d slowest spans per name:\n%s" top
      (Ucp_util.Table.render slow)
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Trace file written by $(b,--trace).")
  in
  let top =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"N" ~doc:"Slowest spans to list per span name (default 5).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Summarize a recorded span trace: per-name counts and durations, \
          integer span-arg totals (e.g. simplex pivots), and the slowest \
          individual spans.")
    Term.(const run $ file $ top)

let () =
  let doc = "WCET-safe, energy-oriented instruction-cache prefetching (DAC 2013)" in
  let info = Cmd.info "ucp" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            tables_cmd;
            analyze_cmd;
            optimize_cmd;
            simulate_cmd;
            baselines_cmd;
            dump_cmd;
            ipet_cmd;
            verify_cmd;
            experiment_cmd;
            fuzz_cmd;
            serve_cmd;
            query_cmd;
            trace_cmd;
          ]))
