(** Plain-text rendering of the experiment results — the rows/series the
    paper's tables and figures report. *)

val table1 : unit -> string
(** Table 1: program identification. *)

val table2 : unit -> string
(** Table 2: cache configurations k1..k36. *)

val figure3 : Experiments.record list -> string
(** Figure 3: average ACET / energy / WCET improvement per cache size. *)

val figure4 : Experiments.record list -> string
(** Figure 4: average miss rate before/after per cache size. *)

val figure5 : Experiments.record list -> string
(** Figure 5: optimized on 1/2 and 1/4 capacity vs original. *)

val figure7 : Experiments.record list -> string
(** Figure 7: per-use-case WCET ratio distribution at 32 nm. *)

val figure8 : Experiments.record list -> string
(** Figure 8: executed-instruction ratios. *)

val policies : Experiments.record list -> string
(** Replacement-policy precision table: per policy present in the
    records, the case count, accepted prefetches, and the summed
    always-hit / always-miss / not-classified static-slot counts for
    the original and optimized programs (see
    {!Experiments.policy_precision}). *)

val refinement : Experiments.record list -> string
(** Exact-refinement precision table: per policy, the not-classified
    slot counts before/after refinement, the reclassification split,
    the reclaimed WCET-bound slack in percent, how many cases carry a
    quantitative non-LRU miss bound and how many hit the exploration
    budget (see {!Experiments.refine_precision}).  Empty for a sweep
    run with refinement off. *)

val headline : Experiments.record list -> string
(** The abstract's three numbers for this run: average reductions of
    energy, ACET and WCET. *)

val all : Experiments.record list -> string
(** Every table and figure, concatenated. *)

val json_string : string -> string
(** JSON string literal, escaped by {!Ucp_util.Json.to_string} (quotes,
    backslash, [\n]/[\r]/[\t], other control bytes as [\u00XX],
    every other byte verbatim).  Shared by {!record_json} and the
    checkpoint journal. *)

val refine_json_side : string -> Ucp_refine.Explore.summary option -> string
(** [refine_json_side suffix s]: the flat [,"refine_<field><suffix>":v]
    pairs of a refine summary, in the fixed order listed under
    {!record_json}; [""] for [None].  {!record_json} appends them per
    side ([""] and ["_opt"]); the checkpoint journal appends the
    [""] form inside each measurement object. *)

val gen_json : string -> string
(** Generator-provenance suffix for a program name: when the name is a
    {!Ucp_workloads.Generate.name} (["gen-<class>-<seed>"]), the
    additive [,"gen_seed":..,"gen_shape":..] JSONL fields that make any
    record carrying them replayable from the artifact alone; [""] for
    suite programs.  Appended to sweep failure lines and checkpoint
    journal entries. *)

val record_json : Experiments.record -> string
(** One use case as a single-line JSON object: program/config/tech/policy
    identification, the cache geometry, and both measurements
    ([tau]/[acet]/[energy_pj]/[miss_rate]/[executed] and the
    [ah]/[am]/[nc] classification counters for the original, the same
    fields with [_opt] for the optimized binary), plus the
    accepted/rolled-back prefetch counts.  An audited case additionally
    carries ["audit_checks"] and ["audit_s"] (certificates passed and
    audit wall-clock; see {!Ucp_verify}); unaudited cases omit both, so
    an audit-off sweep's stream is byte-identical to the seed's.  A
    case measured with [--refine] additionally carries the flat
    [refine_*] fields per side ([refine_mode], [refine_nc_before],
    [refine_nc], [refine_ah_gained], [refine_am_gained], [refine_tau],
    [refine_miss_bound], [refine_quant] (int or null),
    [refine_states], [refine_budget_hit], [refine_budget_exhausted],
    [refine_digest]; [_opt]
    suffix for the optimized side) — appended last, so stripping every
    [,"refine_*":v] pair restores the unrefined stream byte for
    byte. *)

val outcome_summary : (string * Experiments.record Outcome.t) list -> string
(** Human-readable failure digest of a sweep: a counts line, an
    audited-cases line when any case was certified, then one line per
    non-[Ok] case with its id and what went wrong. *)

val policy_outcome_summary :
  policies:Ucp_policy.id list ->
  (string * Experiments.record Outcome.t) list ->
  string
(** Per-policy outcome counts: one line per requested policy, counting
    the outcomes whose case id carries that policy suffix
    ({!Experiments.case_id} ends in [":<policy>"]). *)

val metrics_table : (string * Ucp_obs.Metrics.value) list -> string
(** A {!Ucp_obs.Metrics.dump} snapshot as a two-column table; histogram
    rows are followed by one indented [name{le=bound}] row per
    non-empty bucket. *)

val worker_table : wall_s:float -> Telemetry.worker_stat array -> string
(** Per-worker telemetry table: cases and tasks executed, busy seconds,
    and busy/wall utilization. *)

val sweep_jsonl :
  wall_s:float ->
  jobs:int ->
  timings:Pipeline.timings ->
  ?outcomes:(string * Experiments.record Outcome.t) list ->
  ?metrics:(string * Ucp_obs.Metrics.value) list ->
  Experiments.record list ->
  string
(** The machine-readable sweep summary [ucp experiment --sweep-out]
    writes: one {!record_json} line per use case, then one
    [{"case":..,"outcome":..,"detail":..}] line per non-[Ok] outcome,
    terminated by a summary line [{"summary":true,"cases":..,
    "failed":..,"timed_out":..,"invariant_violations":..,"audited":..,
    "jobs":..,"wall_s":..,"analysis_s":..,"refine_s":..,"optimize_s":..,
    "simulate_s":..,"audit_s":..}] so perf trajectories can be tracked
    across PRs.  [?metrics] (a {!Ucp_obs.Metrics.dump} snapshot, when
    metrics were enabled) adds one nested ["metrics"] object to the
    summary line; the per-record lines never change, so a
    traced/metered sweep's records stay byte-identical to an untraced
    run's. *)
