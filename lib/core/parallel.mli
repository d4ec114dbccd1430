(** Multicore sweep engine: a fixed-size [Domain] worker pool with a
    chunked work queue (mutex + condition variable, standard library
    only) evaluating the paper's use-case grid in parallel.

    Every use case is an independent (program, configuration,
    technology, replacement policy) tuple, so the sweep is
    embarrassingly parallel; the
    engine writes each result at its input index and therefore returns
    records in deterministic input order — record-for-record identical
    to the sequential {!Experiments.sweep} — regardless of worker
    scheduling.

    The sweep is fault-tolerant: a use case that raises, overruns its
    deadline or produces an invariant-violating record is demoted to a
    structured {!Outcome.t} on that case alone while the remaining
    cases run to completion, and an optional JSONL checkpoint journal
    makes an interrupted sweep resumable (see {!Checkpoint}). *)

val default_jobs : unit -> int
(** Worker count: [UCP_JOBS] if set and non-empty (a positive integer,
    anything else raises [Invalid_argument]), otherwise
    [Domain.recommended_domain_count ()]. *)

(** {2 Worker pool}

    A small general-purpose pool, exposed for tests and future callers
    that want to parallelize something other than the sweep. *)

type pool

exception Worker_died of string
(** A worker domain terminated outside task isolation (e.g. a
    {!Fault.Killed_worker} hook, or a crash in the pool machinery
    itself).  Raised by {!wait} on a non-respawning pool, or when every
    worker has died with tasks still queued — instead of hanging on a
    queue that can never drain. *)

val create : ?respawn:bool -> jobs:int -> unit -> pool
(** Spawn [jobs] worker domains blocked on the queue.  With
    [~respawn:true] (default [false]) a worker domain that dies outside
    task isolation is replaced by a fresh domain (the in-flight task is
    lost and accounted for, {!restarts} and the
    [worker_restarts_total] metric are bumped); without it the death
    poisons the pool and {!wait} raises {!Worker_died}.
    @raise Invalid_argument if [jobs < 1]. *)

val restarts : pool -> int
(** Number of worker domains replaced so far (0 unless [~respawn]). *)

val submit : ?weight:int -> pool -> (unit -> unit) -> unit
(** Enqueue a task; returns immediately.  [?weight] (default 1) is the
    number of work items the task stands for, counted in that worker's
    {!Telemetry.worker_stat.cases}.
    @raise Invalid_argument on a pool that was shut down. *)

val wait : pool -> unit
(** Block until every submitted task has finished.  If any task raised,
    re-raises the first such exception with the backtrace captured at
    the original raise site (the remaining tasks still run).  Never
    hangs on worker death: a died worker on a non-respawning pool (or a
    pool whose every worker died) surfaces as {!Worker_died}. *)

val shutdown : pool -> unit
(** Reject further submissions, let queued tasks drain, and join the
    worker domains.  Idempotent. *)

val map :
  ?jobs:int ->
  ?chunk:int ->
  ?progress:(done_:int -> total:int -> unit) ->
  ?telemetry:(Telemetry.worker_stat array -> unit) ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** [map f items] applies [f] to every element on a fresh pool of
    [?jobs] (default {!default_jobs}) workers and returns the results
    in input order.  Work is handed out in contiguous chunks of
    [?chunk] elements (default: enough for ~4 chunks per worker).
    [?progress] is invoked after {e each finished element} with the
    number of elements completed so far; calls are serialized under a
    dedicated lock and [done_] is strictly increasing, but they arrive
    on worker domains — callbacks must not assume the main domain.  A
    raising progress callback does not void the results: the first
    exception disables further callbacks (with a {!Ucp_obs.Log.warn})
    and the map completes normally.  [?telemetry] receives the final
    per-worker {!Telemetry.worker_stat} snapshot once every task has drained
    (an empty array for an empty input).  If [f] raises, the first
    exception is re-raised after the pool drains, with its original
    backtrace. *)

val try_map :
  ?jobs:int ->
  ?chunk:int ->
  ?progress:(done_:int -> total:int -> unit) ->
  ?telemetry:(Telemetry.worker_stat array -> unit) ->
  ('a -> 'b) ->
  'a array ->
  'b Outcome.t array
(** Like {!map}, but isolates failures per element instead of aborting
    the whole map: an element where [f] raises yields
    [Outcome.Failed] (with exception text and backtrace),
    [Ucp_util.Deadline.Deadline_exceeded] yields [Outcome.Timed_out],
    and {!Outcome.Invariant} yields [Outcome.Invariant_violation];
    every other element still yields [Outcome.Ok]. *)

(** {2 The parallel sweep} *)

type sweep = {
  records : Experiments.record list;
      (** successfully evaluated records in input order; on a
          fault-free grid, byte-identical to {!Experiments.sweep} *)
  results : (string * Experiments.record Outcome.t) list;
      (** one outcome per use case in input order, keyed by
          {!Experiments.case_id} *)
  failures : (string * Experiments.record Outcome.t) list;
      (** the non-[Ok] subset of [results], input order *)
  resumed : int;
      (** cases replayed from the checkpoint journal instead of being
          re-evaluated (0 unless resuming) *)
  wall_s : float;  (** elapsed wall-clock time of the whole sweep *)
  jobs : int;  (** worker count actually used *)
  cases : int;  (** number of use cases in the grid *)
  workers : Telemetry.worker_stat array;
      (** per-worker busy time and case counts ([cases] there counts
          evaluated cases only — resumed cases ran no task); empty when
          every case was replayed from the journal *)
  worker_restarts : int;
      (** worker domains that died mid-sweep and were replaced (the
          sweep pool runs with [~respawn:true]); cases lost with a dead
          domain surface in [failures] as [Outcome.Failed] *)
}

val sweep :
  ?programs:(string * Ucp_isa.Program.t) list ->
  ?configs:(string * Ucp_cache.Config.t) list ->
  ?techs:Ucp_energy.Tech.t list ->
  ?policies:Ucp_policy.id list ->
  ?audit:Ucp_verify.mode ->
  ?refine:Ucp_refine.Mode.t ->
  ?jobs:int ->
  ?chunk:int ->
  ?progress:(done_:int -> total:int -> unit) ->
  ?heartbeat:float ->
  ?timeout:float ->
  ?checkpoint:string ->
  ?resume:bool ->
  unit ->
  sweep
(** Evaluate the use-case grid (defaults: the paper's full 2664-case
    setup under LRU; [?policies] (default [[Lru]]) multiplies the grid
    by a replacement-policy axis and is part of the checkpoint
    fingerprint, so resuming an LRU-only journal against a
    multi-policy grid is rejected) on a worker pool.  The CACTI model is computed once per
    (configuration, technology) pair up front; a sweep-wide
    {!Experiments.Analysis_memo} shares each original-program analysis
    across the technology axis (the fixpoint never reads the timing
    model), and within each use case it is further shared between the
    optimizer and the original measurement (see
    {!Pipeline.compare_optimized}).

    Fault tolerance: each case is evaluated in isolation and its
    failure — an exception, a blown [?timeout] (a per-case cooperative
    deadline in seconds, checked inside the ILP/simplex pivots and the
    analysis/optimizer fixpoints), or a record that fails
    {!Experiments.check_invariants} (e.g. Theorem 1: the optimized
    WCET bound must not exceed the original) — is recorded in
    [results]/[failures] while every other case still completes.

    Certification: [?audit] (default [Off]) runs the {!Ucp_verify}
    audit on every case ([Full]) or a deterministic 1-in-N sample keyed
    by case id ([Sample N], stable across resume).  Each audit runs as
    its own pool work item after its case's evaluation (with a fresh
    per-case deadline — queue wait is not execution); the record is
    finalized (fault hooks, invariant guard, checkpoint journal) only
    once the verdict is in.  An audited case whose certificate fails
    any obligation is demoted to [Invariant_violation] with the
    obligation named; audited records carry their verdict and cost in
    {!Experiments.record.audit}.  A [Fault.Corrupt_cert] hook arms the
    certificate-corruption path on its case, which must then fail its
    audit.

    Refinement: [?refine] (default [Nc] — parallel sweeps refine by
    default, matching {!Experiments.sweep}) runs the focused exact
    classification refinement per case ({!Ucp_refine.Explore}); the
    mode is part of the checkpoint fingerprint, so resuming a journal
    swept under a different refine mode is rejected.  Audited refined
    cases carry the two extra refine obligations, and a
    [Fault.Corrupt_refine] hook (one-shot) arms the unsound-
    reclassification path on its case, which must then fail its
    audit.

    Checkpointing: with [?checkpoint:path] every sound finished record
    is appended to a JSONL journal and fsynced; with [resume:true] a
    journal left by an interrupted sweep over the {e same} grid
    (enforced by fingerprint) is replayed first and the journaled
    cases are skipped, so crash + resume produces the same records as
    an uninterrupted run.

    Liveness: [?heartbeat:secs] spawns a watcher domain that writes a
    [\[heartbeat\] done/total | rate | elapsed | eta] line to stderr
    every [secs] seconds (through the {!Ucp_obs.Log} sink, so it never
    interleaves mid-line with log output), making a hung worker visible
    long before a per-case deadline fires.

    Observability: when {!Ucp_obs.Trace} is recording, every case runs
    inside a ["case"] span carrying its id, and when {!Ucp_obs.Metrics}
    is enabled each case feeds the [case_duration_seconds] histogram,
    the [gc_*_total] allocation/collection counters and the per-stage
    [*_seconds_total] fcounters ({!Pipeline.stage}; summed over all
    workers, so under [jobs = n] they exceed [wall_s] up to a factor
    of [n]).
    @raise Invalid_argument if [?timeout] or [?heartbeat] is not
    positive;
    @raise Checkpoint.Bad_journal if the checkpoint journal cannot be
    resumed. *)
