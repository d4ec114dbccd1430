(** The paper's evaluation (Section 5 + Supplement S.5): sweeps over
    programs × cache configurations × technologies, and the aggregation
    behind every table and figure.

    One {!record} per use case carries everything each figure needs, so
    the expensive sweep runs once and the figures are cheap folds. *)

type record = {
  program_name : string;
  config_id : string;  (** Table 2 label, e.g. ["k17"] *)
  config : Ucp_cache.Config.t;
  tech : Ucp_energy.Tech.t;
  policy : Ucp_policy.id;  (** replacement policy of the case *)
  original : Pipeline.measurement;
  optimized : Pipeline.measurement;
  prefetches : int;
  rejected : int;
  audit : Pipeline.audit;  (** certification verdict (see {!Ucp_verify}) *)
}

val sweep :
  ?programs:(string * Ucp_isa.Program.t) list ->
  ?configs:(string * Ucp_cache.Config.t) list ->
  ?techs:Ucp_energy.Tech.t list ->
  ?policies:Ucp_policy.id list ->
  ?refine:Ucp_refine.Mode.t ->
  ?progress:(string -> unit) ->
  unit ->
  record list
(** Run every use case sequentially (defaults: all 37 programs × 36
    configurations × 2 technologies = 2664 cases under LRU, the paper's
    full setup; [?policies] (default [[Lru]]) multiplies the grid by a
    replacement-policy axis).  [?refine] (default [Nc] — sweeps refine
    by default; the base record fields stay unrefined so record streams
    remain comparable across modes) runs the exact classification
    refinement per case.  {!Parallel.sweep} runs the same grid on
    a domain pool and produces record-for-record identical results. *)

(** {2 The use-case grid}

    Shared between this sequential driver and {!Parallel}: the grid is
    materialized in deterministic program-major order (programs, then
    configurations, then technologies, then policies — the record
    order [sweep] returns; with the default LRU-only axis this is
    exactly the seed's order), and both engines evaluate a case
    through the same {!run_case}. *)

type case = {
  case_program_name : string;
  case_program : Ucp_isa.Program.t;
  case_config_id : string;
  case_config : Ucp_cache.Config.t;
  case_tech : Ucp_energy.Tech.t;
  case_policy : Ucp_policy.id;
}

val cases :
  ?policies:Ucp_policy.id list ->
  programs:(string * Ucp_isa.Program.t) list ->
  configs:(string * Ucp_cache.Config.t) list ->
  techs:Ucp_energy.Tech.t list ->
  unit ->
  case array
(** The full cross product, in sweep order ([?policies] default
    [[Lru]], the innermost axis). *)

val case_id : case -> string
(** Stable identity of a use case across runs and processes:
    ["<program>:<config id>:<tech label>:<policy>"], e.g.
    ["fft1:k14:45nm:lru"].  Checkpoint journals and fault injection are
    keyed on it. *)

val model_table :
  (string * Ucp_cache.Config.t) list ->
  Ucp_energy.Tech.t list ->
  (Ucp_cache.Config.t * Ucp_energy.Tech.t, Ucp_energy.Cacti.t) Hashtbl.t
(** One CACTI model per (configuration, technology) pair — computed up
    front so a 2664-case sweep derives 72 models instead of 2664, and
    so worker domains only ever read the table. *)

(** A sweep-wide memo of original-program analyses, keyed
    ["<program>:<config id>:<policy>"].  The cache-aware fixpoint never
    reads the CACTI timing model, so the technology axis of the grid
    shares one analysis per key.  Thread-safe and single-flight: the
    first worker to miss a key computes it outside the lock, later
    workers wait for its result, and a computation that raises lets a
    waiting worker compute the key itself. *)
module Analysis_memo : sig
  type t

  val create : unit -> t
end

val run_case :
  ?deadline:Ucp_util.Deadline.t ->
  ?memo:Analysis_memo.t ->
  ?audit:bool ->
  ?corrupt_cert:bool ->
  ?refine:Ucp_refine.Mode.t ->
  ?corrupt_refine:bool ->
  model:Ucp_energy.Cacti.t ->
  case ->
  record
(** Evaluate one use case: {!Pipeline.compare_optimized} under the
    case's policy, as a {!record} ([model] must be the case's entry
    from {!model_table}).  [?memo] shares original-program analyses
    across the technology axis (passed on as [?analysis0]).
    [?deadline] bounds the analysis, optimizer and audit stages.
    [?audit] runs the {!Ucp_verify} certification on the case, and a
    failed obligation raises [Outcome.Invariant]; [?corrupt_cert]
    injects the certificate corruption the audit must catch; [?refine]
    (default [Off]) runs the exact classification refinement on both
    sides and [?corrupt_refine] injects the [corrupt-refine] fault (all
    default false/[Off]). *)

val check_invariants : record -> (unit, string) result
(** Runtime guard over the paper's soundness claims: Theorem 1
    ([optimized.tau <= original.tau]) and, per measurement, the
    simulated run staying under its analysis bounds ([acet <= tau],
    [demand_misses <= wcet_miss_bound]) — plus, when the measurement
    carries a refinement summary, the refined bounds sandwiched the
    same way ([acet <= s_tau <= tau],
    [demand_misses <= s_miss_bound], and [demand_misses] under the
    quantitative bound when one exists).  [Error msg] describes every
    violated invariant; the parallel sweep turns it into an
    [Invariant_violation] outcome instead of a record. *)

val ratio : int -> int -> float option
(** [ratio num den] is [None] when [den = 0] — degenerate cases are
    dropped from the figure averages and counted, not silently folded
    in as a neutral 1.0. *)

val fratio : float -> float -> float option
(** Float variant of {!ratio}. *)

val default_configs : (string * Ucp_cache.Config.t) list
(** Table 2. *)

val quick_configs : (string * Ucp_cache.Config.t) list
(** A 12-configuration subset (both block sizes, associativities 2 and
    4, capacities 256/1024/4096) for fast runs. *)

(** Per-cache-size averages of the improvement ratios (Figure 3 plots
    [1 - optimized/original] for ACET and energy; WCET shown alongside).
    [degenerate] counts zero-denominator ratios that had to be dropped
    from the averages (they are no longer silently treated as 1.0). *)
type size_row = {
  capacity : int;
  acet_improvement : float;
  energy_improvement : float;
  wcet_improvement : float;
  cases : int;
  degenerate : int;
}

val figure3 : record list -> size_row list

(** Figure 4: average miss rates before and after, per cache size. *)
type miss_row = {
  capacity : int;
  miss_before : float;
  miss_after : float;
  cases : int;
}

val figure4 : record list -> miss_row list

(** Figure 5: the optimized program running on a cache of half / quarter
    capacity versus the original on the full capacity.  Rows are joined
    across the sweep's records (the smaller configuration must be part
    of the sweep). *)
type downsize_row = {
  capacity : int;  (** capacity of the original's cache *)
  factor : int;  (** 2 or 4 *)
  acet_ratio : float;  (** optimized@c/factor vs original@c *)
  energy_ratio : float;
  wcet_ratio : float;
  cases : int;
  degenerate : int;  (** zero-denominator ratios dropped from the means *)
}

val figure5 : record list -> downsize_row list

(** Figure 7: per-use-case WCET ratio at 32 nm. *)
type wcet_scatter = {
  ratios : (string * string * float) list;  (** program, config, ratio *)
  summary : Ucp_util.Stats.summary;
  all_non_increasing : bool;  (** Theorem 1 across the sweep *)
  degenerate : int;  (** 32nm cases with a zero original tau, excluded *)
}

val figure7 : record list -> wcet_scatter

(** Figure 8: average executed-instruction ratio per cache size. *)
type exec_row = {
  capacity : int;
  exec_ratio : float;
  max_ratio : float;
  cases : int;
  degenerate : int;  (** zero-denominator ratios dropped from the means *)
}

val figure8 : record list -> exec_row list

(** Per-policy classification-precision counters: static instruction
    slots of the expanded graphs classified always-hit / always-miss /
    not-classified, summed over a policy's records, for the original
    and the optimized program. *)
type policy_row = {
  row_policy : Ucp_policy.id;
  row_cases : int;
  row_prefetches : int;  (** accepted insertions summed over the cases *)
  row_ah : int;  (** original-program slots classified always-hit *)
  row_am : int;
  row_nc : int;
  row_ah_opt : int;  (** optimized-program counterparts *)
  row_am_opt : int;
  row_nc_opt : int;
}

val policy_precision : record list -> policy_row list
(** One row per policy present in the records, in {!Ucp_policy.all}
    order. *)

(** Per-policy refinement-precision counters, aggregated over the
    original side of every record that carries a refine summary:
    not-classified slots before/after the exact refinement, the
    reclassification split, the unrefined vs refined WCET-bound sums
    (their ratio is the reclaimed-slack fraction), how many cases
    additionally carry a quantitative non-LRU miss bound, and how many
    explorations hit the state budget. *)
type refine_row = {
  rr_policy : Ucp_policy.id;
  rr_cases : int;  (** records whose original side carries a summary *)
  rr_nc_before : int;
  rr_nc_after : int;
  rr_ah_gained : int;
  rr_am_gained : int;
  rr_tau : int;  (** sum of unrefined original taus over [rr_cases] *)
  rr_tau_refined : int;  (** sum of refined original taus *)
  rr_quant_cases : int;  (** cases carrying a quantitative miss bound *)
  rr_budget_hits : int;  (** cases where the exploration hit its budget *)
}

val refine_precision : record list -> refine_row list
(** One row per policy with refined records, in {!Ucp_policy.all}
    order; an empty list when the sweep ran with refinement off. *)

val table1 : unit -> (string * string * int) list
(** Program id, name, static slots (Table 1 + size info). *)

val table2 : unit -> (string * Ucp_cache.Config.t) list
(** Table 2 verbatim. *)
