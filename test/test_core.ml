(* Tests for Ucp_core: the pipeline façade, the experiment sweep, and
   the figure aggregations. *)

module Config = Ucp_cache.Config
module Tech = Ucp_energy.Tech
module Pipeline = Ucp_core.Pipeline
module Experiments = Ucp_core.Experiments
module Report = Ucp_core.Report

let program = Ucp_workloads.Suite.find "fft1"
let config = Config.make ~assoc:2 ~block_bytes:16 ~capacity:256

let test_measure_consistency () =
  let m = Pipeline.measure program config Tech.nm45 in
  Alcotest.(check bool) "tau positive" true (m.Pipeline.tau > 0);
  Alcotest.(check bool) "acet within wcet" true (m.Pipeline.acet <= m.Pipeline.tau);
  Alcotest.(check bool) "energy positive" true (m.Pipeline.energy_pj > 0.0);
  Alcotest.(check bool) "miss rate sane" true
    (m.Pipeline.miss_rate >= 0.0 && m.Pipeline.miss_rate <= 1.0)

let test_measure_deterministic () =
  let a = Pipeline.measure ~seed:3 program config Tech.nm45 in
  let b = Pipeline.measure ~seed:3 program config Tech.nm45 in
  Alcotest.(check int) "same acet" a.Pipeline.acet b.Pipeline.acet

let test_compare_optimized_guarantee () =
  let cmp = Pipeline.compare_optimized program config Tech.nm45 in
  Alcotest.(check bool) "Theorem 1 via the facade" true
    (cmp.Pipeline.optimized.Pipeline.tau <= cmp.Pipeline.original.Pipeline.tau)

(* small synthetic sweep for the aggregation functions *)
let small_records =
  lazy
    (Experiments.sweep
       ~programs:[ ("fft1", Ucp_workloads.Suite.find "fft1"); ("crc", Ucp_workloads.Suite.find "crc") ]
       ~configs:
         [
           ("a", Config.make ~assoc:2 ~block_bytes:16 ~capacity:256);
           ("b", Config.make ~assoc:2 ~block_bytes:16 ~capacity:512);
           ("c", Config.make ~assoc:2 ~block_bytes:16 ~capacity:1024);
         ]
       ~techs:[ Tech.nm45; Tech.nm32 ] ())

let test_sweep_cardinality () =
  Alcotest.(check int) "2 x 3 x 2 records" 12 (List.length (Lazy.force small_records))

let test_figure3_rows () =
  let rows = Experiments.figure3 (Lazy.force small_records) in
  Alcotest.(check int) "one row per capacity" 3 (List.length rows);
  List.iter
    (fun (r : Experiments.size_row) ->
      Alcotest.(check int) "cases per size" 4 r.Experiments.cases;
      Alcotest.(check bool) "wcet improvement sane" true
        (r.Experiments.wcet_improvement >= -0.001 && r.Experiments.wcet_improvement <= 1.0))
    rows

let test_figure4_rows () =
  let rows = Experiments.figure4 (Lazy.force small_records) in
  List.iter
    (fun (r : Experiments.miss_row) ->
      Alcotest.(check bool) "miss after <= before (on average)" true
        (r.Experiments.miss_after <= r.Experiments.miss_before +. 1e-9))
    rows

let test_figure5_join () =
  let rows = Experiments.figure5 (Lazy.force small_records) in
  (* halves exist for 512 and 1024; quarters for 1024 only *)
  let halves = List.filter (fun (r : Experiments.downsize_row) -> r.Experiments.factor = 2) rows in
  let quarters = List.filter (fun (r : Experiments.downsize_row) -> r.Experiments.factor = 4) rows in
  Alcotest.(check int) "half rows" 2 (List.length halves);
  Alcotest.(check int) "quarter rows" 1 (List.length quarters);
  List.iter
    (fun (r : Experiments.downsize_row) ->
      Alcotest.(check int) "cases joined" 4 r.Experiments.cases)
    rows

let test_figure7_theorem1 () =
  let s = Experiments.figure7 (Lazy.force small_records) in
  Alcotest.(check bool) "no 32nm case grew" true s.Experiments.all_non_increasing;
  Alcotest.(check int) "only 32nm cases" 6 (List.length s.Experiments.ratios)

let test_figure8_rows () =
  let rows = Experiments.figure8 (Lazy.force small_records) in
  List.iter
    (fun (r : Experiments.exec_row) ->
      Alcotest.(check bool) "ratio >= 1" true (r.Experiments.exec_ratio >= 1.0 -. 1e-9);
      Alcotest.(check bool) "max >= avg" true
        (r.Experiments.max_ratio >= r.Experiments.exec_ratio -. 1e-9))
    rows

let test_tables () =
  Alcotest.(check int) "table1 has 37 rows" 37 (List.length (Experiments.table1 ()));
  Alcotest.(check int) "table2 has 36 rows" 36 (List.length (Experiments.table2 ()))

let test_report_rendering () =
  let records = Lazy.force small_records in
  List.iter
    (fun s -> Alcotest.(check bool) "non-empty" true (String.length s > 40))
    [
      Report.table1 ();
      Report.table2 ();
      Report.figure3 records;
      Report.figure4 records;
      Report.figure5 records;
      Report.figure7 records;
      Report.figure8 records;
      Report.headline records;
    ]

let test_quick_configs_subset () =
  List.iter
    (fun (id, c) ->
      Alcotest.(check bool) (id ^ " in table 2") true
        (List.exists (fun (_, c') -> Config.equal c c') Experiments.default_configs))
    Experiments.quick_configs

(* ------------------------------------------------------------------ *)
(* the parallel sweep engine *)

module Parallel = Ucp_core.Parallel

let test_parallel_map_order () =
  let items = Array.init 100 (fun i -> i) in
  let out = Parallel.map ~jobs:4 ~chunk:3 (fun i -> i * i) items in
  Alcotest.(check (array int)) "input order" (Array.map (fun i -> i * i) items) out

let test_parallel_map_empty () =
  Alcotest.(check (array int)) "empty" [||] (Parallel.map ~jobs:2 (fun i -> i) [||])

let test_parallel_map_exception () =
  Alcotest.check_raises "first failure re-raised" (Failure "boom") (fun () ->
      ignore
        (Parallel.map ~jobs:2 ~chunk:1
           (fun i -> if i = 5 then failwith "boom" else i)
           (Array.init 10 (fun i -> i))))

let test_parallel_map_progress () =
  let total_items = 20 in
  let seen = ref [] in
  let out =
    Parallel.map ~jobs:3 ~chunk:4
      ~progress:(fun ~done_ ~total ->
        Alcotest.(check int) "total" total_items total;
        seen := done_ :: !seen)
      (fun i -> i)
      (Array.init total_items (fun i -> i))
  in
  Alcotest.(check int) "all results" total_items (Array.length out);
  let seen = List.rev !seen in
  Alcotest.(check bool) "strictly increasing" true
    (List.for_all2 ( < ) (0 :: List.filteri (fun i _ -> i < List.length seen - 1) seen) seen);
  Alcotest.(check int) "last reports total" total_items
    (List.nth seen (List.length seen - 1))

let test_pool_rejects_bad_jobs () =
  Alcotest.check_raises "jobs 0" (Invalid_argument "Parallel.create: jobs must be positive")
    (fun () -> ignore (Parallel.create ~jobs:0 ()))

(* the ISSUE's headline guarantee: the parallel engine's records are
   identical, record for record, to the sequential sweep's — on a slice
   of the quick-config grid kept small enough for CI *)
let det_programs =
  [ ("fft1", Ucp_workloads.Suite.find "fft1"); ("crc", Ucp_workloads.Suite.find "crc") ]

let det_sequential =
  lazy (Experiments.sweep ~programs:det_programs ~configs:Experiments.quick_configs ())

let check_sweep_equal jobs =
  let seq = Lazy.force det_sequential in
  let par =
    Parallel.sweep ~programs:det_programs ~configs:Experiments.quick_configs ~jobs ()
  in
  Alcotest.(check int) "cardinality" (List.length seq)
    (List.length par.Parallel.records);
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "record %d identical (%s@%s)" i a.Experiments.program_name
           a.Experiments.config_id)
        true (a = b))
    (List.combine seq par.Parallel.records);
  Alcotest.(check bool) "wall time measured" true (par.Parallel.wall_s >= 0.0);
  Alcotest.(check int) "case count" (List.length seq) par.Parallel.cases

let test_parallel_sweep_deterministic () = check_sweep_equal 4
let test_parallel_sweep_single_worker () = check_sweep_equal 1

(* stage time lives in the metrics registry: an audited parallel sweep
   under enabled metrics feeds every stage's fcounter *)
let test_parallel_sweep_stage_metrics () =
  let programs = [ ("fft1", Ucp_workloads.Suite.find "fft1") ] in
  let configs = [ ("k2", List.assoc "k2" Config.paper_configs) ] in
  Ucp_obs.Metrics.enable ();
  Ucp_obs.Metrics.reset ();
  Fun.protect ~finally:Ucp_obs.Metrics.disable (fun () ->
      let s =
        Parallel.sweep ~programs ~configs ~techs:[ Tech.nm45 ] ~jobs:2
          ~audit:Ucp_verify.Full ()
      in
      Alcotest.(check int) "one audited record" 1 (List.length s.Parallel.records);
      List.iter
        (fun stage ->
          let name = stage ^ "_seconds_total" in
          match Ucp_obs.Metrics.find name with
          | Some (Ucp_obs.Metrics.Fcounter x) ->
            Alcotest.(check bool) (name ^ " > 0") true (x > 0.0)
          | _ -> Alcotest.failf "%s is not a registered fcounter" name)
        [ "analysis"; "refine"; "optimize"; "simulate"; "audit" ])

(* The sweep's analysis memo: the two technology nodes of one
   (program, configuration, policy) share the original program's
   fixpoint, so a two-technology sweep runs exactly one original
   analysis fewer than the two one-technology sweeps together. *)
let test_parallel_sweep_shares_tech_axis () =
  let program = Ucp_workloads.Suite.find "fft1" in
  let config = List.assoc "k2" Config.paper_configs in
  let original_passes =
    Ucp_wcet.Analysis.fixpoint_passes
      (Ucp_wcet.Wcet.analyze ~with_may:true program config)
  in
  let fixpoint_iterations techs =
    Ucp_obs.Metrics.reset ();
    ignore
      (Parallel.sweep ~programs:[ ("fft1", program) ]
         ~configs:[ ("k2", config) ] ~techs ~jobs:1 ());
    match Ucp_obs.Metrics.find "fixpoint_iterations_total" with
    | Some (Ucp_obs.Metrics.Counter n) -> n
    | _ -> Alcotest.fail "fixpoint_iterations_total is not a registered counter"
  in
  Alcotest.(check bool) "the original analysis iterates" true
    (original_passes > 0);
  Ucp_obs.Metrics.enable ();
  Fun.protect ~finally:Ucp_obs.Metrics.disable (fun () ->
      let both = fixpoint_iterations [ Tech.nm45; Tech.nm32 ] in
      let nm45 = fixpoint_iterations [ Tech.nm45 ] in
      let nm32 = fixpoint_iterations [ Tech.nm32 ] in
      Alcotest.(check int)
        (Printf.sprintf "F(both) %d + F_orig %d = F(45nm) %d + F(32nm) %d" both
           original_passes nm45 nm32)
        (nm45 + nm32) (both + original_passes))

(* The memo is single-flight: when two workers miss one key at once,
   one computes the original analysis and the other waits for it, so a
   two-job sweep runs exactly the one-job sweep's fixpoints, every
   time. *)
let test_parallel_sweep_memo_single_flight () =
  let programs =
    List.map (fun name -> (name, Ucp_workloads.Suite.find name)) [ "fft1"; "crc"; "st"; "fdct" ]
  in
  let configs = List.map (fun id -> (id, List.assoc id Config.paper_configs)) [ "k2"; "k5" ] in
  let fixpoint_iterations jobs =
    Ucp_obs.Metrics.reset ();
    ignore
      (Parallel.sweep ~programs ~configs ~techs:[ Tech.nm45; Tech.nm32 ] ~jobs ~chunk:1
         ());
    match Ucp_obs.Metrics.find "fixpoint_iterations_total" with
    | Some (Ucp_obs.Metrics.Counter n) -> n
    | _ -> Alcotest.fail "fixpoint_iterations_total is not a registered counter"
  in
  Ucp_obs.Metrics.enable ();
  Fun.protect ~finally:Ucp_obs.Metrics.disable (fun () ->
      let one_job = fixpoint_iterations 1 in
      for run = 1 to 5 do
        Alcotest.(check int)
          (Printf.sprintf "two jobs, run %d" run)
          one_job (fixpoint_iterations 2)
      done)

(* ------------------------------------------------------------------ *)
(* robustness: per-case isolation, deadlines, fault injection,
   checkpoint/resume *)

module Outcome = Ucp_core.Outcome
module Fault = Ucp_core.Fault
module Checkpoint = Ucp_core.Checkpoint
module Deadline = Ucp_util.Deadline

let with_env name value f =
  let old = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv name (Option.value old ~default:""))
    f

let test_default_jobs_env () =
  with_env "UCP_JOBS" "3" (fun () ->
      Alcotest.(check int) "UCP_JOBS=3" 3 (Parallel.default_jobs ()));
  with_env "UCP_JOBS" " 5 " (fun () ->
      Alcotest.(check int) "whitespace trimmed" 5 (Parallel.default_jobs ()));
  with_env "UCP_JOBS" "" (fun () ->
      Alcotest.(check bool) "empty falls back to default" true
        (Parallel.default_jobs () >= 1));
  List.iter
    (fun bad ->
      with_env "UCP_JOBS" bad (fun () ->
          Alcotest.(check bool)
            (Printf.sprintf "UCP_JOBS=%s rejected" bad)
            true
            (try
               ignore (Parallel.default_jobs ());
               false
             with Invalid_argument _ -> true)))
    [ "abc"; "0"; "-2"; "1.5" ]

let test_try_map_outcomes () =
  let out =
    Parallel.try_map ~jobs:2 ~chunk:1
      (fun i ->
        if i = 1 then failwith "kaboom"
        else if i = 2 then raise Deadline.Deadline_exceeded
        else if i = 3 then raise (Outcome.Invariant "tau grew")
        else i * 10)
      (Array.init 5 Fun.id)
  in
  Alcotest.(check int) "all elements accounted for" 5 (Array.length out);
  (match out.(0) with
  | Outcome.Ok 0 -> ()
  | _ -> Alcotest.fail "element 0 should be Ok 0");
  (match out.(1) with
  | Outcome.Failed { exn_text; _ } ->
    Alcotest.(check bool) "exception text preserved" true
      (String.length exn_text > 0
      && Ucp_testlib.contains ~substring:"kaboom" exn_text)
  | _ -> Alcotest.fail "element 1 should be Failed");
  (match out.(2) with
  | Outcome.Timed_out -> ()
  | _ -> Alcotest.fail "element 2 should be Timed_out");
  (match out.(3) with
  | Outcome.Invariant_violation "tau grew" -> ()
  | _ -> Alcotest.fail "element 3 should be Invariant_violation");
  match out.(4) with
  | Outcome.Ok 40 -> ()
  | _ -> Alcotest.fail "element 4 should be Ok 40"

let test_try_map_empty () =
  Alcotest.(check int) "empty input" 0
    (Array.length (Parallel.try_map ~jobs:2 (fun i -> i) [||]))

let test_map_progress_exception_contained () =
  (* a raising progress callback must not void the computed results *)
  let calls = ref 0 in
  let out =
    Parallel.map ~jobs:2 ~chunk:2
      ~progress:(fun ~done_:_ ~total:_ ->
        incr calls;
        failwith "progress boom")
      (fun i -> i + 1)
      (Array.init 12 (fun i -> i))
  in
  Alcotest.(check (array int)) "results intact"
    (Array.init 12 (fun i -> i + 1))
    out;
  Alcotest.(check int) "callback disabled after first raise" 1 !calls

(* a deliberately tiny grid so the fault-injection sweeps stay fast *)
let tiny_grid () =
  let programs =
    [ ("fft1", Ucp_workloads.Suite.find "fft1"); ("crc", Ucp_workloads.Suite.find "crc") ]
  in
  let configs = [ ("a", Config.make ~assoc:2 ~block_bytes:16 ~capacity:256) ] in
  let techs = [ Tech.nm45 ] in
  (programs, configs, techs)

let with_faults faults f =
  List.iter (fun (id, mode) -> Fault.set id mode) faults;
  Fun.protect ~finally:Fault.clear f

let test_sweep_isolates_crashed_case () =
  let programs, configs, techs = tiny_grid () in
  with_faults
    [ ("fft1:a:45nm:lru", Fault.Raise) ]
    (fun () ->
      let s = Parallel.sweep ~programs ~configs ~techs ~jobs:2 () in
      Alcotest.(check int) "grid size" 2 s.Parallel.cases;
      Alcotest.(check int) "one record survives" 1 (List.length s.Parallel.records);
      Alcotest.(check int) "one failure" 1 (List.length s.Parallel.failures);
      (match s.Parallel.results with
      | [ ("fft1:a:45nm:lru", Outcome.Failed { exn_text; backtrace = _ }); ("crc:a:45nm:lru", Outcome.Ok r) ]
        ->
        Alcotest.(check bool) "injected exception text" true
          (Ucp_testlib.contains ~substring:"fft1:a:45nm:lru" exn_text);
        Alcotest.(check string) "surviving record is crc" "crc"
          r.Experiments.program_name
      | _ -> Alcotest.fail "expected [fft1 Failed; crc Ok] in input order"))

let test_sweep_times_out_stalled_case () =
  let programs, configs, techs = tiny_grid () in
  with_faults
    [ ("crc:a:45nm:lru", Fault.Stall 30.0) ]
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let s = Parallel.sweep ~programs ~configs ~techs ~jobs:2 ~timeout:0.3 () in
      Alcotest.(check bool) "stall cut short by the deadline" true
        (Unix.gettimeofday () -. t0 < 10.0);
      match s.Parallel.results with
      | [ (_, Outcome.Ok _); ("crc:a:45nm:lru", Outcome.Timed_out) ] -> ()
      | _ -> Alcotest.fail "expected [fft1 Ok; crc Timed_out]")

let test_sweep_demotes_invariant_violation () =
  let programs, configs, techs = tiny_grid () in
  with_faults
    [ ("fft1:a:45nm:lru", Fault.Corrupt_tau 1_000_000) ]
    (fun () ->
      let s = Parallel.sweep ~programs ~configs ~techs ~jobs:2 () in
      match s.Parallel.results with
      | [ ("fft1:a:45nm:lru", Outcome.Invariant_violation msg); (_, Outcome.Ok _) ] ->
        Alcotest.(check bool) "names Theorem 1" true
          (Ucp_testlib.contains ~substring:"Theorem 1" msg);
        Alcotest.(check int) "corrupt record not reported" 1
          (List.length s.Parallel.records)
      | _ -> Alcotest.fail "expected [fft1 Invariant_violation; crc Ok]")

(* certification audit threaded through the sweep: every record of an
   audited run carries a verdict, un-audited runs stay Not_audited *)
let test_sweep_audit_full () =
  let programs, configs, techs = tiny_grid () in
  let s =
    Parallel.sweep ~programs ~configs ~techs ~jobs:2 ~audit:Ucp_verify.Full ()
  in
  Alcotest.(check int) "audited grid is clean" 2 (List.length s.Parallel.records);
  List.iter
    (fun r ->
      match r.Experiments.audit with
      | Pipeline.Audited { checks; seconds } ->
        (* 5 base obligations + 2 refine obligations (sweeps refine by
           default) *)
        Alcotest.(check int) "seven obligations per case" 7 checks;
        Alcotest.(check bool) "non-negative audit cost" true (seconds >= 0.0)
      | Pipeline.Audit_skipped reason ->
        Alcotest.failf "plain case skipped: %s" reason
      | Pipeline.Not_audited -> Alcotest.fail "audited sweep left a record unaudited")
    s.Parallel.records;
  let s0 = Parallel.sweep ~programs ~configs ~techs ~jobs:2 () in
  List.iter
    (fun r ->
      Alcotest.(check bool) "default sweep is not audited" true
        (r.Experiments.audit = Pipeline.Not_audited))
    s0.Parallel.records

(* a corrupt-cert fault must be caught by the audit and demoted to an
   invariant violation naming the failed obligation *)
let test_sweep_audit_demotes_corrupt_cert () =
  let programs, configs, techs = tiny_grid () in
  with_faults
    [ ("fft1:a:45nm:lru", Fault.Corrupt_cert) ]
    (fun () ->
      let s =
        Parallel.sweep ~programs ~configs ~techs ~jobs:2
          ~audit:Ucp_verify.Full ()
      in
      match s.Parallel.results with
      | [ ("fft1:a:45nm:lru", Outcome.Invariant_violation msg); (_, Outcome.Ok _) ] ->
        Alcotest.(check bool) "names the audit obligation" true
          (Ucp_testlib.contains ~substring:"audit: optimizer-tau-after" msg);
        Alcotest.(check int) "corrupt record not reported" 1
          (List.length s.Parallel.records)
      | _ -> Alcotest.fail "expected [fft1 Invariant_violation; crc Ok]")

(* a corrupt-cert fault without the audit passes silently: the fault
   only perturbs the certificate, not the measurements *)
let test_sweep_corrupt_cert_needs_audit () =
  let programs, configs, techs = tiny_grid () in
  with_faults
    [ ("fft1:a:45nm:lru", Fault.Corrupt_cert) ]
    (fun () ->
      let s = Parallel.sweep ~programs ~configs ~techs ~jobs:2 () in
      Alcotest.(check int) "un-audited sweep misses the corruption" 2
        (List.length s.Parallel.records))

(* an audited sweep certifies and finalizes each case right after
   evaluating it: on one worker the first progress report comes after
   exactly one evaluation, not after the whole grid was evaluated with
   every case's audit input held until then *)
let test_sweep_audit_finalizes_each_case () =
  let programs = det_programs in
  let configs = List.filteri (fun i _ -> i < 4) Experiments.quick_configs in
  Ucp_obs.Metrics.enable ();
  Ucp_obs.Metrics.reset ();
  Fun.protect ~finally:Ucp_obs.Metrics.disable (fun () ->
      let evaluated () =
        match Ucp_obs.Metrics.find "case_duration_seconds" with
        | Some (Ucp_obs.Metrics.Histogram { count; _ }) -> count
        | _ -> 0
      in
      let first = ref None in
      let progress ~done_:_ ~total:_ =
        if !first = None then first := Some (evaluated ())
      in
      let s =
        Parallel.sweep ~programs ~configs ~techs:[ Tech.nm45 ] ~jobs:1
          ~audit:Ucp_verify.Full ~progress ()
      in
      Alcotest.(check int) "8 cases" 8 s.Parallel.cases;
      Alcotest.(check int) "all certified" 8 (List.length s.Parallel.records);
      Alcotest.(check (option int))
        "cases evaluated at the first progress report" (Some 1) !first)

(* worker-death handling: a task whose exception escapes per-task
   isolation (a Fault.Killed_worker) kills its domain; the pool must
   never hang on it — it either fails wait with a structured error or
   (under ~respawn) replaces the domain and carries on *)
let test_pool_worker_death_fails_wait () =
  let pool = Parallel.create ~jobs:2 () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () ->
      Parallel.submit pool (fun () -> raise (Fault.Killed_worker "boom"));
      Alcotest.(check bool) "wait raises Worker_died instead of hanging" true
        (try
           Parallel.wait pool;
           false
         with Parallel.Worker_died _ -> true))

let test_pool_respawn_replaces_dead_worker () =
  let pool = Parallel.create ~respawn:true ~jobs:1 () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () ->
      let hit = Atomic.make 0 in
      Parallel.submit pool (fun () -> raise (Fault.Killed_worker "boom"));
      Parallel.submit pool (fun () -> Atomic.incr hit);
      (* the queued task outlives the killed domain: the replacement
         runs it and wait returns normally *)
      Parallel.wait pool;
      Alcotest.(check int) "replacement ran the queued task" 1 (Atomic.get hit);
      Alcotest.(check int) "one restart recorded" 1 (Parallel.restarts pool))

let test_sweep_survives_killed_worker () =
  let programs, configs, techs = tiny_grid () in
  with_faults
    [ ("fft1:a:45nm:lru", Fault.Kill_worker) ]
    (fun () ->
      let s = Parallel.sweep ~programs ~configs ~techs ~jobs:2 ~chunk:1 () in
      Alcotest.(check int) "one worker replaced" 1 s.Parallel.worker_restarts;
      match s.Parallel.results with
      | [ ("fft1:a:45nm:lru", Outcome.Failed { exn_text; _ }); (_, Outcome.Ok r) ] ->
        Alcotest.(check bool) "lost case is structured, not an assert" true
          (Ucp_testlib.contains ~substring:"worker domain died" exn_text);
        Alcotest.(check string) "other case unaffected" "crc"
          r.Experiments.program_name
      | _ -> Alcotest.fail "expected [fft1 Failed (lost with its domain); crc Ok]")

(* durability: an acknowledged journal append (and every write_atomic)
   must reach fsync, not just the kernel page cache *)
let test_checkpoint_writes_are_fsynced () =
  let programs, configs, techs = tiny_grid () in
  let path = Filename.temp_file "ucp_sync" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let fingerprint = Checkpoint.fingerprint ~programs ~configs ~techs () in
      let before = Checkpoint.synced_writes () in
      let j = Checkpoint.start ~path ~fingerprint ~resume:false in
      Fun.protect
        ~finally:(fun () -> Checkpoint.close j)
        (fun () ->
          Alcotest.(check bool) "header is synced" true
            (Checkpoint.synced_writes () > before);
          let r =
            match Experiments.sweep ~programs ~configs ~techs () with
            | r :: _ -> r
            | [] -> Alcotest.fail "tiny grid produced no record"
          in
          let mid = Checkpoint.synced_writes () in
          Checkpoint.record j ~id:"fft1:a:45nm:lru" r;
          Alcotest.(check bool) "record syncs before returning" true
            (Checkpoint.synced_writes () > mid));
      let before_wa = Checkpoint.synced_writes () in
      Checkpoint.write_atomic ~path "replacement contents\n";
      Alcotest.(check bool) "write_atomic syncs before rename" true
        (Checkpoint.synced_writes () > before_wa))

let test_sweep_rejects_bad_timeout () =
  Alcotest.(check bool) "timeout 0 rejected" true
    (try
       ignore (Parallel.sweep ~timeout:0.0 ());
       false
     with Invalid_argument _ -> true)

let test_fault_env_parsing () =
  with_env "UCP_FAULT" "x=raise, y=stall:0.5 ,z=corrupt:42" (fun () ->
      Fun.protect ~finally:Fault.clear (fun () ->
          Fault.load_env ();
          (match Fault.find "x" with
          | Some Fault.Raise -> ()
          | _ -> Alcotest.fail "x should be Raise");
          (match Fault.find "y" with
          | Some (Fault.Stall s) -> Alcotest.(check (float 1e-9)) "stall secs" 0.5 s
          | _ -> Alcotest.fail "y should be Stall");
          (match Fault.find "z" with
          | Some (Fault.Corrupt_tau 42) -> ()
          | _ -> Alcotest.fail "z should be Corrupt_tau 42")));
  with_env "UCP_FAULT" "w=corrupt-cert" (fun () ->
      Fun.protect ~finally:Fault.clear (fun () ->
          Fault.load_env ();
          (match Fault.find "w" with
          | Some Fault.Corrupt_cert -> ()
          | _ -> Alcotest.fail "w should be Corrupt_cert");
          Alcotest.(check bool) "corrupt_cert fires for w" true
            (Fault.corrupt_cert "w");
          Alcotest.(check bool) "corrupt_cert quiet elsewhere" false
            (Fault.corrupt_cert "v")));
  List.iter
    (fun bad ->
      with_env "UCP_FAULT" bad (fun () ->
          Fun.protect ~finally:Fault.clear (fun () ->
              Alcotest.(check bool)
                (Printf.sprintf "UCP_FAULT=%s rejected" bad)
                true
                (try
                   Fault.load_env ();
                   false
                 with Invalid_argument _ -> true))))
    [ "noequals"; "=raise"; "x=explode"; "x=stall:fast" ]

let test_checkpoint_record_roundtrip () =
  let programs, configs, techs = tiny_grid () in
  let s = Parallel.sweep ~programs ~configs ~techs ~jobs:1 () in
  List.iter
    (fun (id, o) ->
      match o with
      | Outcome.Ok r -> (
        let line = Checkpoint.record_line ~id r in
        match Checkpoint.parse_line line with
        | Some (id', r') ->
          Alcotest.(check string) "id round-trips" id id';
          Alcotest.(check bool) "record round-trips bit for bit" true (r = r')
        | None -> Alcotest.fail "record_line should parse back")
      | _ -> Alcotest.fail "tiny grid should be fault-free")
    s.Parallel.results;
  (* audited records round-trip with their verdict; a journal written
     before the audit fields existed still parses (as Not_audited) *)
  let sa =
    Parallel.sweep ~programs ~configs ~techs ~jobs:1 ~audit:Ucp_verify.Full ()
  in
  List.iter
    (fun (id, o) ->
      match o with
      | Outcome.Ok r -> (
        Alcotest.(check bool) "audited sweep record carries a verdict" true
          (r.Experiments.audit <> Pipeline.Not_audited);
        match Checkpoint.parse_line (Checkpoint.record_line ~id r) with
        | Some (_, r') ->
          Alcotest.(check bool) "audited record round-trips bit for bit" true
            (r = r')
        | None -> Alcotest.fail "audited record_line should parse back")
      | _ -> Alcotest.fail "audited tiny grid should be fault-free")
    sa.Parallel.results;
  Alcotest.(check bool) "malformed line rejected" true
    (Checkpoint.parse_line "{\"case\":\"tr" = None)

let test_sweep_checkpoint_resume () =
  let programs, configs, techs =
    let programs, _, techs = tiny_grid () in
    ( programs,
      [
        ("a", Config.make ~assoc:2 ~block_bytes:16 ~capacity:256);
        ("b", Config.make ~assoc:2 ~block_bytes:16 ~capacity:512);
      ],
      techs )
  in
  let path = Filename.temp_file "ucp_ckpt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* reference: an uninterrupted run *)
      let full = Parallel.sweep ~programs ~configs ~techs ~jobs:1 () in
      (* a complete checkpointed run, then simulate a crash by keeping
         only the header, the first two record lines and a torn final
         line *)
      let s0 =
        Parallel.sweep ~programs ~configs ~techs ~jobs:1 ~checkpoint:path ()
      in
      Alcotest.(check int) "checkpointed run is clean" 0
        (List.length s0.Parallel.failures);
      let lines =
        String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all)
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "header + one line per case" 5 (List.length lines);
      let journaled =
        match lines with
        | header :: r1 :: r2 :: _ ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc
                (String.concat "\n" [ header; r1; r2; {|{"case":"tr|} ]));
          List.filter_map Checkpoint.parse_line [ r1; r2 ] |> List.map fst
        | _ -> Alcotest.fail "journal too short"
      in
      Alcotest.(check int) "two journaled cases" 2 (List.length journaled);
      (* prove the journaled cases are skipped, not re-run: rig them to
         crash if executed *)
      with_faults
        (List.map (fun id -> (id, Fault.Raise)) journaled)
        (fun () ->
          let s1 =
            Parallel.sweep ~programs ~configs ~techs ~jobs:1 ~checkpoint:path
              ~resume:true ()
          in
          Alcotest.(check int) "two cases replayed" 2 s1.Parallel.resumed;
          Alcotest.(check int) "no failures on resume" 0
            (List.length s1.Parallel.failures);
          Alcotest.(check bool) "resumed records identical to uninterrupted run"
            true
            (s1.Parallel.records = full.Parallel.records)))

(* the sweep's progress callback counts the whole grid: on a resumed
   run it starts after the replayed cases, and a raising callback
   leaves the records alone *)
let test_sweep_progress_resumed () =
  let programs, _, techs = tiny_grid () in
  let configs =
    [
      ("a", Config.make ~assoc:2 ~block_bytes:16 ~capacity:256);
      ("b", Config.make ~assoc:2 ~block_bytes:16 ~capacity:512);
    ]
  in
  let path = Filename.temp_file "ucp_ckpt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let full =
        Parallel.sweep ~programs ~configs ~techs ~jobs:2 ~checkpoint:path ()
      in
      let n = full.Parallel.cases in
      (* keep the header and the first record: one case to replay *)
      let keep_one_record () =
        match
          String.split_on_char '\n'
            (In_channel.with_open_text path In_channel.input_all)
        with
        | header :: r1 :: _ ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc (header ^ "\n" ^ r1 ^ "\n"))
        | _ -> Alcotest.fail "journal too short"
      in
      keep_one_record ();
      let seen = ref [] in
      let s =
        Parallel.sweep ~programs ~configs ~techs ~jobs:2 ~checkpoint:path
          ~resume:true
          ~progress:(fun ~done_ ~total -> seen := (done_, total) :: !seen)
          ()
      in
      Alcotest.(check int) "one case replayed" 1 s.Parallel.resumed;
      Alcotest.(check (list (pair int int)))
        "done_ rises from resumed + 1 to n, total = n"
        (List.init (n - 1) (fun k -> (k + 2, n)))
        (List.rev !seen);
      keep_one_record ();
      let calls = ref 0 in
      let s =
        Parallel.sweep ~programs ~configs ~techs ~jobs:2 ~checkpoint:path
          ~resume:true
          ~progress:(fun ~done_:_ ~total:_ ->
            incr calls;
            failwith "progress boom")
          ()
      in
      Alcotest.(check int) "callback disabled after first raise" 1 !calls;
      Alcotest.(check bool) "records intact" true
        (s.Parallel.records = full.Parallel.records));
  let raises_invalid f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "map rejects chunk 0" true
    (raises_invalid (fun () -> Parallel.map ~jobs:1 ~chunk:0 Fun.id [| 1 |]));
  Alcotest.(check bool) "sweep rejects chunk 0" true
    (raises_invalid (fun () ->
         Parallel.sweep ~programs ~configs:[ List.hd configs ] ~techs ~jobs:1
           ~chunk:0 ()))

let test_sweep_checkpoint_fingerprint_mismatch () =
  let programs, configs, techs = tiny_grid () in
  let path = Filename.temp_file "ucp_ckpt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore (Parallel.sweep ~programs ~configs ~techs ~jobs:1 ~checkpoint:path ());
      let other_configs =
        [ ("a", Config.make ~assoc:4 ~block_bytes:32 ~capacity:1024) ]
      in
      Alcotest.(check bool) "mismatched grid rejected" true
        (try
           ignore
             (Parallel.sweep ~programs ~configs:other_configs ~techs ~jobs:1
                ~checkpoint:path ~resume:true ());
           false
         with Checkpoint.Bad_journal { problem = Checkpoint.Fingerprint_mismatch _; _ } ->
           true))

(* the policy axis in the journal: case ids carry the policy suffix,
   records round-trip with their policy, and an LRU-only journal cannot
   seed a multi-policy grid *)
let test_checkpoint_policy_roundtrip () =
  let programs, configs, techs = tiny_grid () in
  let s =
    Parallel.sweep ~programs ~configs ~techs ~policies:[ Ucp_policy.Fifo ]
      ~jobs:1 ()
  in
  Alcotest.(check int) "fifo grid evaluated" 2 (List.length s.Parallel.records);
  List.iter
    (fun (id, o) ->
      match o with
      | Outcome.Ok r -> (
        Alcotest.(check bool) "id carries the policy suffix" true
          (Ucp_testlib.contains ~substring:":fifo" id);
        match Checkpoint.parse_line (Checkpoint.record_line ~id r) with
        | Some (id', r') ->
          Alcotest.(check string) "id round-trips" id id';
          Alcotest.(check bool) "policy survives the journal" true
            (r'.Experiments.policy = Ucp_policy.Fifo);
          Alcotest.(check bool) "record round-trips bit for bit" true (r = r')
        | None -> Alcotest.fail "record_line should parse back")
      | _ -> Alcotest.fail "fifo grid should be fault-free")
    s.Parallel.results

let test_checkpoint_policy_fingerprint_mismatch () =
  let programs, configs, techs = tiny_grid () in
  let path = Filename.temp_file "ucp_ckpt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* an LRU-only journal from a completed default sweep ... *)
      ignore (Parallel.sweep ~programs ~configs ~techs ~jobs:1 ~checkpoint:path ());
      (* ... must be rejected when resuming a multi-policy grid *)
      Alcotest.(check bool) "LRU journal rejected for multi-policy grid" true
        (try
           ignore
             (Parallel.sweep ~programs ~configs ~techs
                ~policies:[ Ucp_policy.Lru; Ucp_policy.Fifo; Ucp_policy.Plru ]
                ~jobs:1 ~checkpoint:path ~resume:true ());
           false
         with Checkpoint.Bad_journal { problem = Checkpoint.Fingerprint_mismatch _; _ } ->
           true))

(* ------------------------------------------------------------------ *)
(* the record codec, pinned to bytes written before journals were read
   through Ucp_util.Json *)

module Generate = Ucp_workloads.Generate

let gen_name = Generate.name ~seed:3 ~cls:"s"
let gen_program () = Generate.program ~seed:3 ~cls:"s"
let codec_config = ("a", Config.make ~assoc:2 ~block_bytes:16 ~capacity:256)

(* LRU/FIFO/PLRU x refine nc x full audit over two suite programs and a
   generated one (for the gen_* fields), with the wall-clock audit
   seconds fixed, plus an Audit_skipped record whose reason needs every
   kind of escape *)
let codec_records () =
  let s =
    Parallel.sweep
      ~programs:
        [
          ("fft1", Ucp_workloads.Suite.find "fft1");
          ("crc", Ucp_workloads.Suite.find "crc");
          (gen_name, gen_program ());
        ]
      ~configs:[ codec_config; ("b", Config.make ~assoc:4 ~block_bytes:32 ~capacity:1024) ]
      ~techs:[ Tech.nm45 ]
      ~policies:[ Ucp_policy.Lru; Ucp_policy.Fifo; Ucp_policy.Plru ]
      ~refine:Ucp_refine.Mode.Nc ~audit:Ucp_verify.Full ~jobs:1 ()
  in
  let records =
    List.map
      (fun (id, o) ->
        match o with
        | Outcome.Ok r ->
          let audit =
            match r.Experiments.audit with
            | Pipeline.Audited { checks; seconds = _ } ->
              Pipeline.Audited { checks; seconds = 0.25 }
            | a -> a
          in
          (id, { r with Experiments.audit })
        | _ -> Alcotest.failf "%s should be fault-free" id)
      s.Parallel.results
  in
  match records with
  | (id, r) :: _ ->
    records
    @ [
        ( id ^ "-skipped",
          {
            r with
            Experiments.audit = Pipeline.Audit_skipped "q\"b\\t\tn\000x\xc3\xa9\xff";
          } );
      ]
  | [] -> Alcotest.fail "empty codec grid"

let test_codec_pinned () =
  let records = codec_records () in
  let digest f =
    Digest.to_hex (Digest.string (String.concat "\n" (List.map f records)))
  in
  Alcotest.(check string) "record_line digest" "b67b30dcc5e0ca68aa5100420017689f"
    (digest (fun (id, r) -> Checkpoint.record_line ~id r));
  Alcotest.(check string) "record_json digest" "668127cc0ffe76a00f9ef926f3bdeca8"
    (digest (fun (_, r) -> Report.record_json r));
  List.iter
    (fun (id, r) ->
      Alcotest.(check bool) (id ^ " round-trips") true
        (Checkpoint.parse_line (Checkpoint.record_line ~id r) = Some (id, r)))
    records

(* a journal written before journals were read through Ucp_util.Json:
   fft1 under LRU and FIFO and a generated program under LRU (refine nc,
   full audit), then the first 200 bytes of the next record, as a crash
   leaves them *)
let old_header =
  {|{"ucp_checkpoint":3,"fingerprint":"73ee5dd7c13e7b89bf5df289a5a2424c"}|}

let old_records =
  [
    {|{"case":"fft1:a:45nm:lru","program":"fft1","config_id":"a","assoc":2,"block_bytes":16,"capacity":256,"tech":"45nm","policy":"lru","prefetches":16,"rejected":1,"audit_checks":7,"audit_s":0.0016312599182128906,"original":{"tau":25235,"acet":18947,"energy_pj":682291.14000000001,"miss_rate":0.065669612508497621,"executed":7355,"demand_misses":483,"wcet_miss_bound":866,"ah":269,"am":45,"nc":17,"refine_mode":"nc","refine_nc_before":17,"refine_nc":10,"refine_ah_gained":0,"refine_am_gained":7,"refine_tau":25235,"refine_miss_bound":866,"refine_quant":null,"refine_states":167,"refine_budget_hit":false,"refine_budget_exhausted":0,"refine_digest":"056ad896c6f151f9a11ad8b4b46972df"},"optimized":{"tau":20835,"acet":16363,"energy_pj":616576.26000000001,"miss_rate":0.045319176485821573,"executed":7723,"demand_misses":350,"wcet_miss_bound":470,"ah":323,"am":38,"nc":6,"refine_mode":"nc","refine_nc_before":6,"refine_nc":2,"refine_ah_gained":0,"refine_am_gained":4,"refine_tau":20835,"refine_miss_bound":470,"refine_quant":null,"refine_states":101,"refine_budget_hit":false,"refine_budget_exhausted":0,"refine_digest":"a9e53400f2bf84684e4dc39b6eeef8d5"}}|};
    {|{"case":"fft1:a:45nm:fifo","program":"fft1","config_id":"a","assoc":2,"block_bytes":16,"capacity":256,"tech":"45nm","policy":"fifo","prefetches":0,"rejected":7,"audit_checks":7,"audit_s":0.0013988018035888672,"original":{"tau":77267,"acet":18947,"energy_pj":682291.14000000001,"miss_rate":0.065669612508497621,"executed":7355,"demand_misses":483,"wcet_miss_bound":3288,"ah":209,"am":41,"nc":81,"refine_mode":"nc","refine_nc_before":81,"refine_nc":10,"refine_ah_gained":60,"refine_am_gained":11,"refine_tau":25235,"refine_miss_bound":866,"refine_quant":1748,"refine_states":182,"refine_budget_hit":false,"refine_budget_exhausted":0,"refine_digest":"a1458735e2cdea1af30999ad1df0a5f7"},"optimized":{"tau":77267,"acet":18947,"energy_pj":682291.14000000001,"miss_rate":0.065669612508497621,"executed":7355,"demand_misses":483,"wcet_miss_bound":3288,"ah":209,"am":41,"nc":81,"refine_mode":"nc","refine_nc_before":81,"refine_nc":10,"refine_ah_gained":60,"refine_am_gained":11,"refine_tau":25235,"refine_miss_bound":866,"refine_quant":1748,"refine_states":182,"refine_budget_hit":false,"refine_budget_exhausted":0,"refine_digest":"a1458735e2cdea1af30999ad1df0a5f7"}}|};
    {|{"case":"gen-s-3:a:45nm:lru","program":"gen-s-3","config_id":"a","assoc":2,"block_bytes":16,"capacity":256,"tech":"45nm","policy":"lru","prefetches":0,"rejected":0,"gen_seed":3,"gen_shape":"s","audit_checks":7,"audit_s":0.00011682510375976562,"original":{"tau":374,"acet":104,"energy_pj":3691.6800000000003,"miss_rate":0.5,"executed":8,"demand_misses":4,"wcet_miss_bound":14,"ah":24,"am":10,"nc":4,"refine_mode":"nc","refine_nc_before":4,"refine_nc":4,"refine_ah_gained":0,"refine_am_gained":0,"refine_tau":374,"refine_miss_bound":14,"refine_quant":null,"refine_states":31,"refine_budget_hit":false,"refine_budget_exhausted":0,"refine_digest":"81a1247960423ff442dd76b114656009"},"optimized":{"tau":374,"acet":104,"energy_pj":3691.6800000000003,"miss_rate":0.5,"executed":8,"demand_misses":4,"wcet_miss_bound":14,"ah":24,"am":10,"nc":4,"refine_mode":"nc","refine_nc_before":4,"refine_nc":4,"refine_ah_gained":0,"refine_am_gained":0,"refine_tau":374,"refine_miss_bound":14,"refine_quant":null,"refine_states":31,"refine_budget_hit":false,"refine_budget_exhausted":0,"refine_digest":"81a1247960423ff442dd76b114656009"}}|};
  ]

let old_journal =
  String.concat "\n"
    ((old_header :: old_records)
    @ [
        {|{"case":"gen-s-3:a:45nm:fifo","program":"gen-s-3","config_id":"a","assoc":2,"block_bytes":16,"capacity":256,"tech":"45nm","policy":"fifo","prefetches":0,"rejected":0,"gen_seed":3,"gen_shape":"s","audi|};
      ])

let old_fingerprint () =
  Checkpoint.fingerprint
    ~policies:[ Ucp_policy.Lru; Ucp_policy.Fifo ]
    ~refine:Ucp_refine.Mode.Nc
    ~programs:[ ("fft1", Ucp_workloads.Suite.find "fft1"); (gen_name, gen_program ()) ]
    ~configs:[ codec_config ] ~techs:[ Tech.nm45 ] ()

let with_old_journal f =
  let path = Filename.temp_file "ucp_ckpt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc old_journal);
      f path)

let test_old_journal_resumes () =
  with_old_journal (fun path ->
      let j = Checkpoint.start ~path ~fingerprint:(old_fingerprint ()) ~resume:true in
      Checkpoint.close j;
      let rewritten =
        Hashtbl.fold
          (fun id r acc -> Checkpoint.record_line ~id r :: acc)
          (Checkpoint.completed j) []
      in
      Alcotest.(check (list string))
        "complete lines re-encode byte for byte; the torn line is dropped"
        (List.sort compare old_records)
        (List.sort compare rewritten))

(* resume replaces the journal by rename: a hard link to the old file
   keeps its bytes, and appends go to the new file *)
let test_resume_rewrite_is_atomic () =
  with_old_journal (fun path ->
      let link = path ^ ".link" in
      Unix.link path link;
      Fun.protect
        ~finally:(fun () -> try Sys.remove link with Sys_error _ -> ())
        (fun () ->
          let j =
            Checkpoint.start ~path ~fingerprint:(old_fingerprint ()) ~resume:true
          in
          let r =
            match Hashtbl.find_opt (Checkpoint.completed j) "fft1:a:45nm:lru" with
            | Some r -> r
            | None -> Alcotest.fail "fft1:a:45nm:lru not replayed"
          in
          Checkpoint.record j ~id:"extra" r;
          Checkpoint.close j;
          Alcotest.(check string) "the old journal is not written in place"
            old_journal
            (In_channel.with_open_bin link In_channel.input_all);
          Alcotest.(check (list string))
            "new journal: header, replayed records, then the append"
            (List.sort compare
               ("" :: old_header :: Checkpoint.record_line ~id:"extra" r :: old_records))
            (List.sort compare
               (String.split_on_char '\n'
                  (In_channel.with_open_bin path In_channel.input_all)))))

(* a journal comes from outside the program: each way [start] refuses
   one is a typed error that prints the path and the problem *)
let test_bad_journal_text () =
  let path = Filename.temp_file "ucp_ckpt" ".jsonl" in
  let refused ~fingerprint journal =
    Out_channel.with_open_bin path (fun oc -> output_string oc journal);
    match Checkpoint.start ~path ~fingerprint ~resume:true with
    | j ->
      Checkpoint.close j;
      Alcotest.fail "journal accepted"
    | exception (Checkpoint.Bad_journal _ as e) -> Printexc.to_string e
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let fp = old_fingerprint () in
      let check problem got =
        Alcotest.(check string) problem
          (Printf.sprintf "Checkpoint.start: %s: %s" path problem)
          got
      in
      check "unreadable journal header" (refused ~fingerprint:fp "not json\n");
      check "unsupported journal version"
        (refused ~fingerprint:fp {|{"ucp_checkpoint":2,"fingerprint":"x"}|});
      check
        (Printf.sprintf
           "sweep fingerprint mismatch (journal %s, grid other) — the checkpoint \
            belongs to a different suite/config/tech grid"
           fp)
        (refused ~fingerprint:"other" old_journal);
      check "corrupt journal line 2"
        (refused ~fingerprint:fp
           (String.concat "\n" [ old_header; "garbage"; List.hd old_records ])))

let test_experiments_ratio_degenerate () =
  Alcotest.(check bool) "zero denominator is None" true
    (Experiments.ratio 5 0 = None);
  Alcotest.(check bool) "defined ratio" true (Experiments.ratio 1 2 = Some 0.5);
  Alcotest.(check bool) "zero float denominator is None" true
    (Experiments.fratio 5.0 0.0 = None);
  Alcotest.(check bool) "defined float ratio" true
    (Experiments.fratio 1.0 4.0 = Some 0.25)

(* ------------------------------------------------------------------ *)
(* an unchanged program is measured once *)

module Wcet = Ucp_wcet.Wcet
module Optimizer = Ucp_prefetch.Optimizer

(* The reference: a use case evaluated and certified with both sides
   analysed, refined, simulated and audited independently, as
   [Pipeline.compare_optimized] did before the original side stood for
   an unchanged program.  Audit seconds are zeroed. *)
let reference_case ~model (c : Experiments.case) =
  let policy = c.Experiments.case_policy
  and config = c.Experiments.case_config
  and tech = c.Experiments.case_tech
  and program = c.Experiments.case_program
  and refine = Ucp_refine.Mode.Nc in
  let w0 = Wcet.compute ~with_may:true ~policy program config model in
  let result = Optimizer.optimize ~initial:w0 program config model in
  let w1 =
    Wcet.compute ~with_may:true ~policy result.Optimizer.program config model
  in
  let side w p = Pipeline.measure ~model ~wcet:w ~policy ~refine p config tech in
  let original = side w0 program in
  let optimized = side w1 result.Optimizer.program in
  let audit =
    match
      Ucp_verify.audit_case ~seed:42
        ~refine:(refine, original.Pipeline.refine, optimized.Pipeline.refine)
        ~original:w0 ~optimized:w1 result
    with
    | Ok (Ucp_verify.Certified { checks; _ }) ->
      Pipeline.Audited { checks; seconds = 0.0 }
    | Ok (Ucp_verify.Skipped { reason }) -> Pipeline.Audit_skipped reason
    | Error msg ->
      Alcotest.failf "%s: reference audit failed: %s" (Experiments.case_id c) msg
  in
  {
    Experiments.program_name = c.Experiments.case_program_name;
    config_id = c.Experiments.case_config_id;
    config;
    tech;
    policy;
    original;
    optimized;
    prefetches = List.length result.Optimizer.insertions;
    rejected = result.Optimizer.rejected;
    audit;
  }

let without_audit_s (r : Experiments.record) =
  match r.Experiments.audit with
  | Pipeline.Audited { checks; _ } ->
    { r with Experiments.audit = Pipeline.Audited { checks; seconds = 0.0 } }
  | Pipeline.Not_audited | Pipeline.Audit_skipped _ -> r

let ref_configs =
  List.map
    (fun id -> (id, List.assoc id Config.paper_configs))
    [ "k4"; "k10"; "k35"; "k36" ]

(* [run_case] must give the reference's record, audit seconds aside,
   on changed and unchanged cases alike; returns how many cases the
   optimizer left unchanged *)
let check_matches_reference cases =
  let models = Experiments.model_table ref_configs Tech.all in
  List.fold_left
    (fun unchanged (c : Experiments.case) ->
      let model =
        Hashtbl.find models (c.Experiments.case_config, c.Experiments.case_tech)
      in
      let r =
        Experiments.run_case ~audit:true ~refine:Ucp_refine.Mode.Nc ~model c
      in
      Alcotest.(check bool)
        (Experiments.case_id c ^ " matches the reference")
        true
        (without_audit_s r = reference_case ~model c);
      if r.Experiments.prefetches = 0 then unchanged + 1 else unchanged)
    0 cases

let test_shared_side_matches_reference_suite () =
  let cases =
    Experiments.cases ~policies:Ucp_policy.all ~programs:Ucp_workloads.Suite.all
      ~configs:ref_configs ~techs:[ Tech.nm45 ] ()
  in
  let n = Array.length cases in
  let unchanged = check_matches_reference (Array.to_list cases) in
  Alcotest.(check bool)
    (Printf.sprintf "both kinds covered (%d of %d unchanged)" unchanged n)
    true
    (unchanged > 0 && unchanged < n)

let test_shared_side_matches_reference_generated () =
  let policies = Array.of_list Ucp_policy.all in
  let cases =
    List.init 50 (fun seed ->
        let cls = if seed mod 5 = 4 then "l" else "m" in
        let id, config = List.nth ref_configs (seed mod List.length ref_configs) in
        {
          Experiments.case_program_name = Ucp_workloads.Generate.name ~seed ~cls;
          case_program = Ucp_workloads.Generate.program ~seed ~cls;
          case_config_id = id;
          case_config = config;
          case_tech = (if seed mod 2 = 0 then Tech.nm45 else Tech.nm32);
          case_policy = policies.(seed mod Array.length policies);
        })
  in
  ignore (check_matches_reference cases)

(* fft1 at k35 under FIFO gets no prefetch, and refinement reclaims
   references in it, so both faults have something to act on.  The
   side is shared with a fault armed too, and the audit still names
   the fault; one IPET certificate check per audit shows that the one
   analysis was certified once. *)
let test_unchanged_case_shares_faults_caught () =
  let program = Ucp_workloads.Suite.find "fft1" in
  let config = List.assoc "k35" Config.paper_configs in
  let ipet_checks () =
    List.fold_left
      (fun n name ->
        match Ucp_obs.Metrics.find name with
        | Some (Ucp_obs.Metrics.Counter c) -> n + c
        | _ -> n)
      0
      [ "audit_ipet_fastpath_total"; "audit_ipet_slowpath_total" ]
  in
  let evaluate ?corrupt_refine ?corrupt_cert label =
    Ucp_obs.Metrics.reset ();
    let cmp =
      match
        Pipeline.compare_optimized ~policy:Ucp_policy.Fifo ~audit:true
          ~refine:Ucp_refine.Mode.Nc ?corrupt_refine ?corrupt_cert program
          config Tech.nm45
      with
      | cmp -> Ok cmp
      | exception Outcome.Invariant msg -> Error msg
    in
    Alcotest.(check int) (label ^ ": one IPET certificate check") 1
      (ipet_checks ());
    cmp
  in
  Ucp_obs.Metrics.enable ();
  Fun.protect ~finally:Ucp_obs.Metrics.disable (fun () ->
      (match evaluate "clean" with
      | Ok cmp -> (
        Alcotest.(check int) "clean: no prefetch" 0 cmp.Pipeline.prefetches;
        Alcotest.(check bool) "clean: one measurement for both sides" true
          (cmp.Pipeline.optimized == cmp.Pipeline.original);
        match cmp.Pipeline.audit with
        | Pipeline.Audited { checks; _ } ->
          Alcotest.(check int) "every obligation counted" 7 checks
        | Pipeline.Not_audited | Pipeline.Audit_skipped _ ->
          Alcotest.fail "the shared case was not certified")
      | Error msg -> Alcotest.failf "the shared case failed its audit: %s" msg);
      List.iter
        (fun (fault, corrupt_refine, corrupt_cert, obligation) ->
          match evaluate ~corrupt_refine ~corrupt_cert fault with
          | Error msg ->
            Alcotest.(check bool)
              (Printf.sprintf "%s names %s (got %S)" fault obligation msg)
              true
              (Ucp_testlib.contains ~substring:("audit: " ^ obligation) msg)
          | Ok _ -> Alcotest.failf "%s slipped past the audit" fault)
        [
          ("corrupt-refine", true, false, "refine-original");
          ("corrupt-cert", false, true, "optimizer-tau-after");
        ])

let () =
  Alcotest.run "ucp_core"
    [
      ( "pipeline",
        [
          Alcotest.test_case "measure consistency" `Quick test_measure_consistency;
          Alcotest.test_case "measure deterministic" `Quick test_measure_deterministic;
          Alcotest.test_case "compare guarantee" `Quick test_compare_optimized_guarantee;
          Alcotest.test_case "shared side matches the reference (suite)" `Quick
            test_shared_side_matches_reference_suite;
          Alcotest.test_case "shared side matches the reference (generated)"
            `Quick test_shared_side_matches_reference_generated;
          Alcotest.test_case "unchanged case shares, faults still caught"
            `Quick test_unchanged_case_shares_faults_caught;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "sweep cardinality" `Quick test_sweep_cardinality;
          Alcotest.test_case "figure 3" `Quick test_figure3_rows;
          Alcotest.test_case "figure 4" `Quick test_figure4_rows;
          Alcotest.test_case "figure 5" `Quick test_figure5_join;
          Alcotest.test_case "figure 7" `Quick test_figure7_theorem1;
          Alcotest.test_case "figure 8" `Quick test_figure8_rows;
          Alcotest.test_case "tables" `Quick test_tables;
          Alcotest.test_case "quick configs" `Quick test_quick_configs_subset;
        ] );
      ("report", [ Alcotest.test_case "rendering" `Quick test_report_rendering ]);
      ( "parallel",
        [
          Alcotest.test_case "map preserves order" `Quick test_parallel_map_order;
          Alcotest.test_case "map empty" `Quick test_parallel_map_empty;
          Alcotest.test_case "map propagates exceptions" `Quick test_parallel_map_exception;
          Alcotest.test_case "map progress" `Quick test_parallel_map_progress;
          Alcotest.test_case "pool rejects jobs<1" `Quick test_pool_rejects_bad_jobs;
          Alcotest.test_case "sweep deterministic (jobs 4)" `Quick
            test_parallel_sweep_deterministic;
          Alcotest.test_case "sweep degenerate pool (jobs 1)" `Quick
            test_parallel_sweep_single_worker;
          Alcotest.test_case "sweep feeds the stage metrics" `Quick
            test_parallel_sweep_stage_metrics;
          Alcotest.test_case "technology axis shares one original analysis"
            `Quick test_parallel_sweep_shares_tech_axis;
          Alcotest.test_case "two jobs share one original analysis" `Quick
            test_parallel_sweep_memo_single_flight;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "UCP_JOBS parsing" `Quick test_default_jobs_env;
          Alcotest.test_case "try_map outcomes" `Quick test_try_map_outcomes;
          Alcotest.test_case "try_map empty" `Quick test_try_map_empty;
          Alcotest.test_case "progress exception contained" `Quick
            test_map_progress_exception_contained;
          Alcotest.test_case "sweep isolates crashed case" `Quick
            test_sweep_isolates_crashed_case;
          Alcotest.test_case "sweep times out stalled case" `Quick
            test_sweep_times_out_stalled_case;
          Alcotest.test_case "sweep demotes invariant violation" `Quick
            test_sweep_demotes_invariant_violation;
          Alcotest.test_case "sweep audit certifies every record" `Quick
            test_sweep_audit_full;
          Alcotest.test_case "sweep audit demotes corrupt certificate" `Quick
            test_sweep_audit_demotes_corrupt_cert;
          Alcotest.test_case "corrupt certificate needs the audit" `Quick
            test_sweep_corrupt_cert_needs_audit;
          Alcotest.test_case "audited sweep finalizes each case in turn" `Quick
            test_sweep_audit_finalizes_each_case;
          Alcotest.test_case "worker death fails wait" `Quick
            test_pool_worker_death_fails_wait;
          Alcotest.test_case "respawn replaces dead worker" `Quick
            test_pool_respawn_replaces_dead_worker;
          Alcotest.test_case "sweep survives killed worker" `Quick
            test_sweep_survives_killed_worker;
          Alcotest.test_case "checkpoint writes are fsynced" `Quick
            test_checkpoint_writes_are_fsynced;
          Alcotest.test_case "sweep rejects bad timeout" `Quick
            test_sweep_rejects_bad_timeout;
          Alcotest.test_case "UCP_FAULT parsing" `Quick test_fault_env_parsing;
          Alcotest.test_case "checkpoint line round-trip" `Quick
            test_checkpoint_record_roundtrip;
          Alcotest.test_case "checkpoint resume skips journaled cases" `Quick
            test_sweep_checkpoint_resume;
          Alcotest.test_case "sweep progress counts resumed cases" `Quick
            test_sweep_progress_resumed;
          Alcotest.test_case "checkpoint fingerprint mismatch" `Quick
            test_sweep_checkpoint_fingerprint_mismatch;
          Alcotest.test_case "checkpoint policy round-trip" `Quick
            test_checkpoint_policy_roundtrip;
          Alcotest.test_case "checkpoint rejects LRU journal for multi-policy grid"
            `Quick test_checkpoint_policy_fingerprint_mismatch;
          Alcotest.test_case "record codec pinned" `Quick test_codec_pinned;
          Alcotest.test_case "journal written before the Json reader resumes"
            `Quick test_old_journal_resumes;
          Alcotest.test_case "resume rewrite is atomic" `Quick
            test_resume_rewrite_is_atomic;
          Alcotest.test_case "refused journals print their problem" `Quick
            test_bad_journal_text;
          Alcotest.test_case "degenerate ratios" `Quick
            test_experiments_ratio_degenerate;
        ] );
    ]
