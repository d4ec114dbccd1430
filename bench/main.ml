(* Reproduction harness: regenerates the rows/series of every table
   and figure of the paper's evaluation (Tables 1-2, Figures 3, 4, 5,
   7, 8), plus the ablation tables DESIGN.md calls out (placement
   discipline, overhead budget, baselines).  The sweep defaults to a
   12-configuration subset; set UCP_FULL=1 for the paper's full
   36-configuration, 2664-use-case setup.  Performance is measured by
   the repository benchmark, ucpbench/.

     dune exec bench/main.exe             # subset sweep
     UCP_FULL=1 dune exec bench/main.exe  # the full paper sweep

   The sweep runs on the Ucp_core.Parallel domain pool; set UCP_JOBS=N
   or pass --jobs N to size it.  A machine-readable per-use-case
   summary (JSON lines, see Report.sweep_jsonl) is written to
   bench_sweep.jsonl, or to $UCP_SWEEP_OUT if set. *)

module Config = Ucp_cache.Config
module Tech = Ucp_energy.Tech
module Experiments = Ucp_core.Experiments
module Parallel = Ucp_core.Parallel
module Report = Ucp_core.Report
module Pipeline = Ucp_core.Pipeline
module Optimizer = Ucp_prefetch.Optimizer
module Wcet = Ucp_wcet.Wcet
module Simulator = Ucp_sim.Simulator
module Table = Ucp_util.Table
module Clock = Ucp_util.Clock

let full = Sys.getenv_opt "UCP_FULL" = Some "1"

let argv_opt name =
  (* --name V / --name=V on the command line *)
  let flag = "--" ^ name and prefix = "--" ^ name ^ "=" in
  let plen = String.length prefix in
  let rec scan = function
    | [] -> None
    | a :: v :: _ when a = flag -> Some v
    | a :: tl ->
      if String.length a >= plen && String.sub a 0 plen = prefix then
        Some (String.sub a plen (String.length a - plen))
      else scan tl
  in
  scan (Array.to_list Sys.argv)

let jobs =
  (* --jobs N on the command line wins over UCP_JOBS *)
  match Option.bind (argv_opt "jobs") int_of_string_opt with
  | Some j when j >= 1 -> j
  | Some _ -> prerr_endline "bench: --jobs: expected a positive integer"; exit 124
  | None -> (
    try Parallel.default_jobs ()
    with Invalid_argument msg ->
      prerr_endline ("bench: " ^ msg);
      exit 124)

let policies =
  (* --policies lru,fifo,plru multiplies the sweep grid (default lru) *)
  match argv_opt "policies" with
  | None -> [ Ucp_policy.Lru ]
  | Some s ->
    List.map
      (fun name ->
        match Ucp_policy.of_string name with
        | Ok p -> p
        | Error msg ->
          prerr_endline ("bench: --policies: " ^ msg);
          exit 124)
      (String.split_on_char ',' s)

let timeout =
  (* --timeout SECS on the command line wins over UCP_CASE_TIMEOUT *)
  let spec =
    match argv_opt "timeout" with
    | Some _ as v -> v
    | None -> (
      match Sys.getenv_opt "UCP_CASE_TIMEOUT" with Some "" -> None | v -> v)
  in
  match spec with
  | None -> None
  | Some s -> (
    match float_of_string_opt s with
    | Some t when t > 0.0 -> Some t
    | Some _ | None ->
      prerr_endline ("bench: timeout " ^ s ^ ": expected positive seconds");
      exit 124)

let audit =
  (* --audit off|sample:N|full on the command line wins over UCP_AUDIT *)
  let spec =
    match argv_opt "audit" with
    | Some _ as v -> v
    | None -> ( match Sys.getenv_opt "UCP_AUDIT" with Some "" -> None | v -> v)
  in
  match spec with
  | None -> Ucp_verify.Off
  | Some s -> (
    match Ucp_verify.mode_of_string s with
    | Ok m -> m
    | Error msg ->
      prerr_endline ("bench: --audit: " ^ msg);
      exit 124)

let trace_path =
  (* --trace FILE on the command line wins over UCP_TRACE *)
  match argv_opt "trace" with
  | Some _ as v -> v
  | None -> ( match Sys.getenv_opt "UCP_TRACE" with Some "" -> None | v -> v)

let heartbeat =
  (* --heartbeat SECS on the command line wins over UCP_HEARTBEAT *)
  let spec =
    match argv_opt "heartbeat" with
    | Some _ as v -> v
    | None -> (
      match Sys.getenv_opt "UCP_HEARTBEAT" with Some "" -> None | v -> v)
  in
  match spec with
  | None -> None
  | Some s -> (
    match float_of_string_opt s with
    | Some t when t > 0.0 -> Some t
    | Some _ | None ->
      prerr_endline ("bench: heartbeat " ^ s ^ ": expected positive seconds");
      exit 124)

(* tracing implies metrics so the exported spans and the counter table
   describe the same run *)
let metrics_on = trace_path <> None || Sys.getenv_opt "UCP_METRICS" = Some "1"

(* ------------------------------------------------------------------ *)
(* reproduction *)

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

let summary_path =
  match Sys.getenv_opt "UCP_SWEEP_OUT" with
  | Some p when p <> "" -> p
  | Some _ | None -> "bench_sweep.jsonl"

let reproduce () =
  let configs = if full then Experiments.default_configs else Experiments.quick_configs in
  Printf.printf
    "reproduction sweep: %d programs x %d configs x 2 techs x %d policies = %d use cases%s\n%!"
    (List.length Ucp_workloads.Suite.all)
    (List.length configs) (List.length policies)
    (List.length Ucp_workloads.Suite.all * List.length configs * 2
    * List.length policies)
    (if full then " (full paper setup)" else " (quick subset; UCP_FULL=1 for all 36)");
  (match audit with
  | Ucp_verify.Off -> ()
  | m -> Printf.printf "  certification audit: %s\n%!" (Ucp_verify.mode_to_string m));
  (* per-policy progress line: completion, throughput and run-rate ETA,
     refreshed every 16 cases (progress now arrives per case) *)
  let make_progress () =
    let t_start = Clock.now_s () in
    fun ~done_ ~total ->
      if done_ = total || done_ mod 16 = 0 then begin
        let elapsed = Clock.now_s () -. t_start in
        let rate = if elapsed > 0.0 then float_of_int done_ /. elapsed else 0.0 in
        let eta =
          if rate > 0.0 then
            Printf.sprintf "%.0fs" (float_of_int (total - done_) /. rate)
          else "?"
        in
        Printf.eprintf "\r[sweep] %d/%d | %.1f case/s | elapsed %.0fs | eta %s%!"
          done_ total rate elapsed eta
      end
  in
  (* probe before the (minutes-long) sweep so a bad UCP_SWEEP_OUT path
     fails immediately instead of discarding the finished run; the real
     write below is atomic (temp + rename), so the previous summary is
     never left half-overwritten *)
  (try close_out (open_out_gen [ Open_append; Open_creat ] 0o644 summary_path)
   with Sys_error msg ->
     prerr_endline ("bench: " ^ msg);
     exit 1);
  (match trace_path with
  | None -> ()
  | Some path -> (
    try close_out (open_out_gen [ Open_append; Open_creat ] 0o644 path)
    with Sys_error msg ->
      prerr_endline ("bench: " ^ msg);
      exit 1));
  if metrics_on then Ucp_obs.Metrics.enable ();
  if trace_path <> None then Ucp_obs.Trace.start ();
  let t0 = Clock.now_s () in
  (* one sweep per policy so each slice's wall time is observable on its
     own; the concatenation covers the same grid as a single
     multi-policy sweep, in policy-major order *)
  let sweeps =
    List.map
      (fun p ->
        let tp = Clock.now_s () in
        let s =
          Parallel.sweep ~configs ~policies:[ p ] ~audit ~jobs
            ~progress:(make_progress ()) ?heartbeat ?timeout ()
        in
        Printf.eprintf "\r%!";
        Printf.printf "  policy %-5s %d use cases in %.1fs wall\n%!"
          (Ucp_policy.to_string p) s.Parallel.cases (Clock.now_s () -. tp);
        if metrics_on then
          print_string (Report.worker_table ~wall_s:s.Parallel.wall_s s.Parallel.workers);
        s)
      policies
  in
  Ucp_obs.Trace.stop ();
  (match trace_path with
  | None -> ()
  | Some path ->
    Ucp_obs.Trace.export path;
    Printf.printf "trace written to %s (%d spans)\n%!" path
      (List.length (Ucp_obs.Trace.spans ())));
  let records = List.concat_map (fun s -> s.Parallel.records) sweeps in
  let results = List.concat_map (fun s -> s.Parallel.results) sweeps in
  let failures = List.concat_map (fun s -> s.Parallel.failures) sweeps in
  let some = List.hd sweeps in
  let tm = Pipeline.fresh_timings () in
  List.iter (fun s -> Pipeline.add_timings tm s.Parallel.timings) sweeps;
  let sweep_wall =
    List.fold_left (fun acc s -> acc +. s.Parallel.wall_s) 0.0 sweeps
  in
  Printf.printf "sweep finished in %.1fs wall on %d worker%s\n"
    (Clock.now_s () -. t0) some.Parallel.jobs (if some.Parallel.jobs = 1 then "" else "s");
  print_string
    (Report.stage_table
       (List.map2
          (fun p (s : Parallel.sweep) ->
            (Ucp_policy.to_string p, s.Parallel.timings))
          policies sweeps
       @ (if List.length policies > 1 then [ ("total", tm) ] else [])));
  print_newline ();
  if failures <> [] then begin
    print_string (Report.outcome_summary results);
    if List.length policies > 1 then
      print_string (Report.policy_outcome_summary ~policies results)
  end;
  let metrics_dump = if metrics_on then Ucp_obs.Metrics.dump () else [] in
  if metrics_dump <> [] then print_string (Report.metrics_table metrics_dump);
  Ucp_core.Checkpoint.write_atomic ~path:summary_path
    (Report.sweep_jsonl ~wall_s:sweep_wall ~jobs:some.Parallel.jobs ~timings:tm
       ~outcomes:results
       ?metrics:(if metrics_dump = [] then None else Some metrics_dump)
       records);
  Printf.printf "per-use-case summary written to %s (%d records + summary line)\n\n%!"
    summary_path (List.length records);
  print_string (Report.all records);
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

let () =
  reproduce ();
  print_endline "\nbench: done"
