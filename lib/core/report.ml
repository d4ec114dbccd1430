module Table = Ucp_util.Table
module Stats = Ucp_util.Stats
module Config = Ucp_cache.Config

let section title body = Printf.sprintf "== %s ==\n%s\n" title body

let table1 () =
  let t = Table.create [ "id"; "program"; "static slots"; "size class" ] in
  List.iter
    (fun (id, name, slots) ->
      Table.add_row t
        [ id; name; string_of_int slots;
          Ucp_workloads.Suite.size_class (Ucp_workloads.Suite.find name) ])
    (Experiments.table1 ());
  section "Table 1: program identification" (Table.render t)

let table2 () =
  let t = Table.create [ "id"; "assoc"; "block (B)"; "capacity (B)"; "sets" ] in
  List.iter
    (fun (id, c) ->
      Table.add_row t
        [
          id;
          string_of_int c.Config.assoc;
          string_of_int c.Config.block_bytes;
          string_of_int c.Config.capacity;
          string_of_int c.Config.sets;
        ])
    (Experiments.table2 ());
  section "Table 2: cache configurations" (Table.render t)

let figure3 records =
  let t =
    Table.create
      [ "cache size"; "ACET impr."; "energy impr."; "WCET impr."; "cases"; "degenerate" ]
  in
  List.iter
    (fun (r : Experiments.size_row) ->
      Table.add_row t
        [
          string_of_int r.capacity;
          Table.cell_pct r.acet_improvement;
          Table.cell_pct r.energy_improvement;
          Table.cell_pct r.wcet_improvement;
          string_of_int r.cases;
          string_of_int r.degenerate;
        ])
    (Experiments.figure3 records);
  section "Figure 3: impact on energy efficiency (averages per cache size)"
    (Table.render t)

let figure4 records =
  let t = Table.create [ "cache size"; "miss rate before"; "miss rate after"; "cases" ] in
  List.iter
    (fun (r : Experiments.miss_row) ->
      Table.add_row t
        [
          string_of_int r.capacity;
          Table.cell_pct r.miss_before;
          Table.cell_pct r.miss_after;
          string_of_int r.cases;
        ])
    (Experiments.figure4 records);
  section "Figure 4: impact on miss rate" (Table.render t)

let figure5 records =
  let t =
    Table.create
      [
        "orig. cache"; "opt. cache"; "ACET ratio"; "energy ratio"; "WCET ratio";
        "cases"; "degenerate";
      ]
  in
  List.iter
    (fun (r : Experiments.downsize_row) ->
      Table.add_row t
        [
          string_of_int r.capacity;
          Printf.sprintf "1/%d" r.factor;
          Table.cell_f r.acet_ratio;
          Table.cell_f r.energy_ratio;
          Table.cell_f r.wcet_ratio;
          string_of_int r.cases;
          string_of_int r.degenerate;
        ])
    (Experiments.figure5 records);
  section "Figure 5: optimized programs on 1/2 and 1/4 of the original cache"
    (Table.render t)

let figure7 records =
  let s = Experiments.figure7 records in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Format.asprintf "WCET ratio distribution (32nm): %a\n" Stats.pp_summary s.summary);
  Buffer.add_string buf
    (Printf.sprintf "Theorem 1 (no use case grew): %b\n"
       s.Experiments.all_non_increasing);
  let improved =
    List.length (List.filter (fun (_, _, v) -> v < 1.0 -. 1e-9) s.Experiments.ratios)
  in
  Buffer.add_string buf
    (Printf.sprintf "use cases improved: %d / %d\n" improved
       (List.length s.Experiments.ratios));
  if s.Experiments.degenerate > 0 then
    Buffer.add_string buf
      (Printf.sprintf "degenerate ratios dropped (zero WCET): %d\n"
         s.Experiments.degenerate);
  section "Figure 7: per-use-case WCET ratios (32nm)" (Buffer.contents buf)

let figure8 records =
  let t =
    Table.create [ "cache size"; "avg executed ratio"; "max ratio"; "cases"; "degenerate" ]
  in
  List.iter
    (fun (r : Experiments.exec_row) ->
      Table.add_row t
        [
          string_of_int r.capacity;
          Table.cell_f r.exec_ratio;
          Table.cell_f r.max_ratio;
          string_of_int r.cases;
          string_of_int r.degenerate;
        ])
    (Experiments.figure8 records);
  section "Figure 8: executed-instruction ratio (optimized / original)"
    (Table.render t)

let policies records =
  let t =
    Table.create
      [
        "policy"; "cases"; "prefetches"; "AH"; "AM"; "NC"; "AH opt"; "AM opt";
        "NC opt";
      ]
  in
  List.iter
    (fun (r : Experiments.policy_row) ->
      Table.add_row t
        [
          Ucp_policy.to_string r.row_policy;
          string_of_int r.row_cases;
          string_of_int r.row_prefetches;
          string_of_int r.row_ah;
          string_of_int r.row_am;
          string_of_int r.row_nc;
          string_of_int r.row_ah_opt;
          string_of_int r.row_am_opt;
          string_of_int r.row_nc_opt;
        ])
    (Experiments.policy_precision records);
  section "Replacement policies: classification precision (summed static slots)"
    (Table.render t)

(* WCET-bound slack reclaimed by refinement, as a percentage of the
   unrefined bound sum *)
let reclaimed rr =
  match rr.Experiments.rr_tau with
  | 0 -> 0.0
  | tau ->
    100.0
    *. float_of_int (tau - rr.Experiments.rr_tau_refined)
    /. float_of_int tau

let refinement records =
  match Experiments.refine_precision records with
  | [] -> ""
  | rows ->
    let t =
      Table.create
        [
          "policy"; "cases"; "NC before"; "NC after"; "+AH"; "+AM";
          "WCET delta %"; "quant"; "budget hits";
        ]
    in
    List.iter
      (fun (r : Experiments.refine_row) ->
        Table.add_row t
          [
            Ucp_policy.to_string r.rr_policy;
            string_of_int r.rr_cases;
            string_of_int r.rr_nc_before;
            string_of_int r.rr_nc_after;
            string_of_int r.rr_ah_gained;
            string_of_int r.rr_am_gained;
            Printf.sprintf "%.2f" (reclaimed r);
            string_of_int r.rr_quant_cases;
            string_of_int r.rr_budget_hits;
          ])
      rows;
    section "Exact refinement: reclaimed NC slack per policy (original programs)"
      (Table.render t)

let headline records =
  let rows = Experiments.figure3 records in
  let avg f = Stats.mean (List.map f rows) in
  Printf.sprintf
    "headline: energy -%.1f%%, ACET -%.1f%%, WCET -%.1f%% (paper: 11.2%%, 10.2%%, 17.4%%)\n"
    (100.0 *. avg (fun (r : Experiments.size_row) -> r.energy_improvement))
    (100.0 *. avg (fun (r : Experiments.size_row) -> r.acet_improvement))
    (100.0 *. avg (fun (r : Experiments.size_row) -> r.wcet_improvement))

(* ------------------------------------------------------------------ *)
(* machine-readable sweep summary (JSON lines) *)

let json_string s = Ucp_util.Json.to_string (Ucp_util.Json.Str s)

(* appended to record_json: absent entirely for unaudited cases, so an
   audit-off sweep's stream is byte-identical to the seed's *)
let audit_json (a : Pipeline.audit) =
  match a with
  | Pipeline.Not_audited -> ""
  | Pipeline.Audited { checks; seconds } ->
    Printf.sprintf {|,"audit_checks":%d,"audit_s":%.3f|} checks seconds
  | Pipeline.Audit_skipped reason ->
    Printf.sprintf {|,"audit_skipped":%s|} (json_string reason)

(* appended to record_json: absent when the case was measured with
   refinement off, so stripping every [,"refine_*":v] pair — and
   nothing else — restores the unrefined record stream byte for byte
   (ci.sh pins this) *)
let refine_json_side suffix (s : Ucp_refine.Explore.summary option) =
  match s with
  | None -> ""
  | Some s ->
    let open Ucp_refine.Explore in
    let kv k v = Printf.sprintf {|,"%s%s":%s|} k suffix v in
    String.concat ""
      [
        kv "refine_mode" (json_string (Ucp_refine.Mode.to_string s.s_mode));
        kv "refine_nc_before" (string_of_int s.s_nc_before);
        kv "refine_nc" (string_of_int s.s_nc_after);
        kv "refine_ah_gained" (string_of_int s.s_ah_gained);
        kv "refine_am_gained" (string_of_int s.s_am_gained);
        kv "refine_tau" (string_of_int s.s_tau);
        kv "refine_miss_bound" (string_of_int s.s_miss_bound);
        kv "refine_quant"
          (match s.s_quant with None -> "null" | Some q -> string_of_int q);
        kv "refine_states" (string_of_int s.s_states);
        kv "refine_budget_hit" (string_of_bool s.s_budget_hit);
        kv "refine_budget_exhausted" (string_of_int s.s_budget_exhausted);
        kv "refine_digest" (json_string s.s_digest);
      ]

(* generator provenance, recovered from the program name: generated
   programs are named by {!Ucp_workloads.Generate.name}, so any JSONL
   line that identifies its program can carry the full reproducer
   [(seed, shape)] as additive fields — empty for suite programs *)
let gen_json program_name =
  match Ucp_workloads.Generate.parse_name program_name with
  | None -> ""
  | Some (seed, cls) ->
    Printf.sprintf {|,"gen_seed":%d,"gen_shape":%s|} seed (json_string cls)

(* case ids are "<program>:<config>:<tech>:<policy>" *)
let gen_json_of_case_id id =
  match String.index_opt id ':' with
  | None -> gen_json id
  | Some i -> gen_json (String.sub id 0 i)

let record_json (r : Experiments.record) =
  let m = r.Experiments.original and o = r.Experiments.optimized in
  Printf.sprintf
    {|{"program":%s,"config":%s,"tech":%s,"policy":%s,"assoc":%d,"block_bytes":%d,"capacity":%d,"tau":%d,"tau_opt":%d,"acet":%d,"acet_opt":%d,"energy_pj":%.3f,"energy_opt_pj":%.3f,"miss_rate":%.6f,"miss_opt_rate":%.6f,"demand_misses":%d,"demand_misses_opt":%d,"executed":%d,"executed_opt":%d,"ah":%d,"am":%d,"nc":%d,"ah_opt":%d,"am_opt":%d,"nc_opt":%d,"prefetches":%d,"rejected":%d%s%s%s}|}
    (json_string r.Experiments.program_name)
    (json_string r.Experiments.config_id)
    (json_string r.Experiments.tech.Ucp_energy.Tech.label)
    (json_string (Ucp_policy.to_string r.Experiments.policy))
    r.Experiments.config.Config.assoc r.Experiments.config.Config.block_bytes
    r.Experiments.config.Config.capacity m.Pipeline.tau o.Pipeline.tau
    m.Pipeline.acet o.Pipeline.acet m.Pipeline.energy_pj o.Pipeline.energy_pj
    m.Pipeline.miss_rate o.Pipeline.miss_rate m.Pipeline.demand_misses
    o.Pipeline.demand_misses m.Pipeline.executed
    o.Pipeline.executed m.Pipeline.ah m.Pipeline.am m.Pipeline.nc
    o.Pipeline.ah o.Pipeline.am o.Pipeline.nc
    r.Experiments.prefetches r.Experiments.rejected
    (audit_json r.Experiments.audit)
    (refine_json_side "" m.Pipeline.refine)
    (refine_json_side "_opt" o.Pipeline.refine)

let outcome_counts outcomes =
  List.fold_left
    (fun (ok, failed, timed_out, violations) (_, o) ->
      match (o : _ Outcome.t) with
      | Outcome.Ok _ -> (ok + 1, failed, timed_out, violations)
      | Outcome.Failed _ -> (ok, failed + 1, timed_out, violations)
      | Outcome.Timed_out -> (ok, failed, timed_out + 1, violations)
      | Outcome.Invariant_violation _ -> (ok, failed, timed_out, violations + 1))
    (0, 0, 0, 0) outcomes

(* case ids end in ":<policy>" (Experiments.case_id); bucket outcomes by
   that suffix so a multi-policy sweep can report each slice. *)
let policy_outcome_summary ~policies outcomes =
  let suffix p = ":" ^ Ucp_policy.to_string p in
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      let slice =
        List.filter
          (fun (id, _) ->
            let s = suffix p in
            let n = String.length s and l = String.length id in
            l >= n && String.sub id (l - n) n = s)
          outcomes
      in
      let ok, failed, timed_out, violations = outcome_counts slice in
      Buffer.add_string buf
        (Printf.sprintf
           "policy %-5s %d ok, %d failed, %d timed out, %d invariant violations\n"
           (Ucp_policy.to_string p) ok failed timed_out violations))
    policies;
  Buffer.contents buf

(* audited-case digest over the [Ok] records of a sweep: certified
   cases with their check/second totals, plus the cases the audit had
   to skip (unsupported analysis modes) *)
let audit_counts outcomes =
  List.fold_left
    (fun (n, checks, secs, skipped) (_, o) ->
      match (o : Experiments.record Outcome.t) with
      | Outcome.Ok { Experiments.audit = Pipeline.Audited { checks = c; seconds }; _ }
        ->
        (n + 1, checks + c, secs +. seconds, skipped)
      | Outcome.Ok { Experiments.audit = Pipeline.Audit_skipped _; _ } ->
        (n, checks, secs, skipped + 1)
      | _ -> (n, checks, secs, skipped))
    (0, 0, 0.0, 0) outcomes

let outcome_summary outcomes =
  let ok, failed, timed_out, violations = outcome_counts outcomes in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "cases: %d ok, %d failed, %d timed out, %d invariant violations\n"
       ok failed timed_out violations);
  (let audited, checks, secs, skipped = audit_counts outcomes in
   if audited > 0 then
     Buffer.add_string buf
       (Printf.sprintf "audited: %d cases certified (%d checks, %.1fs)\n" audited
          checks secs);
   if skipped > 0 then
     Buffer.add_string buf
       (Printf.sprintf "audit skipped: %d cases (unsupported analysis modes)\n"
          skipped));
  List.iter
    (fun (id, o) ->
      if not (Outcome.is_ok o) then
        Buffer.add_string buf (Printf.sprintf "  %s: %s\n" id (Outcome.describe o)))
    outcomes;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* observability: metrics, worker telemetry and per-stage rendering *)

(* one JSON member per instrument, nested under a single "metrics"
   object on the sweep summary line (additive: absent when metrics are
   disabled, so the stream stays v2-compatible byte for byte) *)
let metrics_json metrics =
  let value = function
    | Ucp_obs.Metrics.Counter n -> string_of_int n
    | Ucp_obs.Metrics.Fcounter x | Ucp_obs.Metrics.Gauge x ->
      Printf.sprintf "%.6g" x
    | Ucp_obs.Metrics.Histogram { count; sum; _ } ->
      Printf.sprintf {|{"count":%d,"sum":%.6g}|} count sum
  in
  Printf.sprintf {|,"metrics":{%s}|}
    (String.concat ","
       (List.map (fun (name, v) -> json_string name ^ ":" ^ value v) metrics))

let metrics_table metrics =
  let t = Table.create [ "metric"; "value" ] in
  List.iter
    (fun (name, v) ->
      match (v : Ucp_obs.Metrics.value) with
      | Ucp_obs.Metrics.Counter n -> Table.add_row t [ name; string_of_int n ]
      | Ucp_obs.Metrics.Fcounter x | Ucp_obs.Metrics.Gauge x ->
        Table.add_row t [ name; Printf.sprintf "%.6g" x ]
      | Ucp_obs.Metrics.Histogram { bounds; counts; sum; count } ->
        Table.add_row t
          [
            name;
            Printf.sprintf "count=%d sum=%.3f mean=%.4f" count sum
              (if count = 0 then 0.0 else sum /. float_of_int count);
          ];
        Array.iteri
          (fun i c ->
            if c > 0 then
              let le =
                if i < Array.length bounds then Printf.sprintf "%g" bounds.(i)
                else "+inf"
              in
              Table.add_row t
                [ Printf.sprintf "  %s{le=%s}" name le; string_of_int c ])
          counts)
    metrics;
  section "Metrics" (Table.render t)

let worker_table ~wall_s (stats : Telemetry.worker_stat array) =
  let t = Table.create [ "worker"; "cases"; "tasks"; "busy (s)"; "utilization" ] in
  Array.iteri
    (fun i (w : Telemetry.worker_stat) ->
      Table.add_row t
        [
          string_of_int i;
          string_of_int w.Telemetry.cases;
          string_of_int w.Telemetry.tasks;
          Printf.sprintf "%.2f" w.Telemetry.busy_s;
          (if wall_s > 0.0 then
             Printf.sprintf "%.0f%%" (100.0 *. w.Telemetry.busy_s /. wall_s)
           else "-");
        ])
    stats;
  section "Worker telemetry" (Table.render t)

let sweep_jsonl ~wall_s ~jobs ~timings ?(outcomes = []) ?metrics records =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string buf (record_json r);
      Buffer.add_char buf '\n')
    records;
  List.iter
    (fun (id, o) ->
      if not (Outcome.is_ok o) then begin
        (* failed / timed-out / invariant-violating cases echo their
           generator provenance, so the failure is replayable from the
           artifact alone *)
        Buffer.add_string buf
          (Printf.sprintf {|{"case":%s,"outcome":%s,"detail":%s%s}|}
             (json_string id)
             (json_string (Outcome.label o))
             (json_string (Outcome.describe o))
             (gen_json_of_case_id id));
        Buffer.add_char buf '\n'
      end)
    outcomes;
  let _, failed, timed_out, violations = outcome_counts outcomes in
  let audited =
    List.length
      (List.filter
         (fun (r : Experiments.record) ->
           r.Experiments.audit <> Pipeline.Not_audited)
         records)
  in
  Buffer.add_string buf
    (Printf.sprintf
       {|{"summary":true,"cases":%d,"failed":%d,"timed_out":%d,"invariant_violations":%d,"audited":%d,"jobs":%d,"wall_s":%.3f,"analysis_s":%.3f,"refine_s":%.3f,"optimize_s":%.3f,"simulate_s":%.3f,"audit_s":%.3f%s}|}
       (List.length records) failed timed_out violations audited jobs wall_s
       timings.Pipeline.analysis_s timings.Pipeline.refine_s
       timings.Pipeline.optimize_s
       timings.Pipeline.simulate_s timings.Pipeline.audit_s
       (match metrics with
       | None | Some [] -> ""
       | Some ms -> metrics_json ms));
  Buffer.add_char buf '\n';
  Buffer.contents buf

let all records =
  String.concat "\n"
    [
      table1 ();
      table2 ();
      figure3 records;
      figure4 records;
      figure5 records;
      figure7 records;
      figure8 records;
      policies records;
      refinement records;
      headline records;
    ]
