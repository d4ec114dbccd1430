(** Fault injection for the sweep pipeline — test scaffolding that
    proves the fault-tolerance layer actually works.

    A hook is keyed by the stable {!Experiments.case_id} of a use case
    and makes exactly that case raise, stall, or corrupt its result.
    Hooks are installed programmatically ({!set}) by tests, or from the
    [UCP_FAULT] environment variable ({!load_env}) by the CLI drivers,
    which is how [ci.sh] runs its fault-injected smoke sweep.

    The hook table is written before a sweep starts and only read
    (under its lock) by worker domains afterwards; an empty table costs
    one mutex acquisition per case. *)

type mode =
  | Raise  (** the case raises [Injected] instead of running *)
  | Stall of float
      (** busy-wait (checking the case deadline) for up to the given
          number of seconds before running; with an armed deadline the
          stall is interrupted by [Deadline_exceeded] — this is how the
          timeout path is exercised *)
  | Corrupt_tau of int
      (** run the case normally, then inflate the optimized [tau] by
          the given number of cycles — a synthetic Theorem-1 violation
          for exercising the invariant guard *)
  | Corrupt_cert
      (** run the case with the audit's certificate-corruption hook
          armed ({!Pipeline.compare_optimized}'s [~corrupt_cert]): one
          field of the optimizer's audit trail is perturbed before
          checking, so an audited case must be demoted to
          [Invariant_violation] naming the violated obligation — the
          negative test that the certification layer actually checks
          something *)
  | Corrupt_refine
      (** {e one-shot}: run the case with the refinement's
          fault-injection hook armed ({!Pipeline.compare_optimized}'s
          [~corrupt_refine]): the original side's exact exploration
          claims one not-proven reference [Always_hit], so the ILP
          drops a miss term it must not — an audited case must be
          demoted to [Invariant_violation] naming the [refine-original]
          obligation (the audit recomputes the exploration and the
          digests disagree).  The negative test that unsound
          refinement cannot slip through certification. *)
  | Kill_worker
      (** {e one-shot}: the worker domain evaluating this case raises
          {!Killed_worker}, which escapes task isolation and kills the
          domain — the pool's death detection / respawn path
          ({!Parallel}) and the serve daemon's worker-replacement story
          are exercised by it.  The hook clears itself when it fires,
          so a retry of the same case succeeds. *)
  | Corrupt_store
      (** {e one-shot}, serve mode: after the result store persists
          this case's entry, the entry's bytes are scribbled on disk —
          the next read must detect the checksum mismatch, quarantine
          the entry and transparently recompute. *)
  | Stall_request of float
      (** serve mode, {e one-shot}: the daemon stalls this case's
          request for up to the given seconds before serving it
          (bounded by the request deadline) — exercises queue backlog
          and load shedding. *)

exception Injected of string
(** Raised by a [Raise] hook; the payload is the case id. *)

exception Killed_worker of string
(** Raised by a [Kill_worker] hook.  Deliberately {e not} caught by the
    sweep's per-case isolation: it propagates through the worker loop
    and terminates the domain, simulating a worker death outside task
    isolation. *)

val set : string -> mode -> unit
(** [set case_id mode] installs (or replaces) the hook for a case. *)

val clear : unit -> unit
(** Remove every hook (tests call this in a finalizer). *)

val find : string -> mode option

val load_env : unit -> unit
(** Install hooks from [UCP_FAULT]: a comma-separated list of
    [<case_id>=<mode>] entries where mode is [raise], [stall],
    [stall:<secs>] (default 10s), [corrupt] / [corrupt:<cycles>]
    (default 1000), [corrupt-cert], [corrupt-refine], [kill-worker],
    [corrupt-store] or
    [stall-request] / [stall-request:<secs>] (default 10s).  Example:
    [UCP_FAULT='fft1:k2:45nm=raise,crc:k3:32nm=stall'].  Unset or empty
    means no hooks.
    @raise Invalid_argument on a malformed entry. *)

val corrupt_cert : string -> bool
(** Is a [Corrupt_cert] hook installed for this case?  The sweep passes
    the answer to {!Experiments.run_case} as [~corrupt_cert]. *)

val corrupt_refine : string -> bool
(** Consume a [Corrupt_refine] hook for this case, if armed (one-shot:
    true at most once).  The sweep passes the answer to
    {!Experiments.run_case} as [~corrupt_refine]. *)

val corrupt_store : string -> bool
(** Consume a [Corrupt_store] hook for this case, if armed (one-shot:
    true at most once).  The serve result store calls it after
    persisting the case's entry. *)

val stall_request : string -> float option
(** Consume a [Stall_request] hook for this case, if armed (one-shot):
    the stall duration in seconds. *)

val busy_wait : ?deadline:Ucp_util.Deadline.t -> float -> unit
(** Spin for up to the given seconds, checking the deadline — the stall
    primitive shared by [Stall] and the daemon's [Stall_request]. *)

val apply_pre : ?deadline:Ucp_util.Deadline.t -> string -> unit
(** Run the pre-execution side of the case's hook, if any: [Raise]
    raises {!Injected}, [Stall] spins until its duration elapses or the
    deadline fires, [Kill_worker] consumes its (one-shot) hook and
    raises {!Killed_worker}.  [Corrupt_tau], [Corrupt_cert],
    [Corrupt_refine], [Corrupt_store] and [Stall_request] do nothing
    here. *)

val corrupt : string -> Experiments.record -> Experiments.record
(** Apply the case's [Corrupt_tau] hook to a finished record, if any;
    identity otherwise. *)
