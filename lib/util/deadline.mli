(** Cooperative per-task deadlines.

    A deadline is an absolute point on the monotonic {!Clock}, so
    setting the system time neither fires nor postpones it.
    Long-running iteration loops (the simplex pivot loop, the
    abstract-interpretation fixpoint, the optimizer's verify rounds)
    accept an optional deadline and call {!check} periodically; once
    the deadline has passed the next check raises {!Deadline_exceeded},
    which the sweep engine maps to a [Timed_out] outcome for the
    offending use case.

    Checks are cooperative: code that never calls {!check} (e.g. the
    trace simulator's inner loop) cannot be interrupted.  The analysis,
    LP and optimizer loops — the phases that can blow up
    combinatorially — all check. *)

type t
(** An absolute deadline. *)

exception Deadline_exceeded
(** Raised by {!check} once the deadline has passed. *)

val after : float -> t
(** [after secs] is the deadline [secs] seconds from now.
    @raise Invalid_argument if [secs] is not positive and finite. *)

val expired : t -> bool
(** Has the deadline passed?  Never raises. *)

val check : t option -> unit
(** [check (Some d)] raises {!Deadline_exceeded} iff [d] has passed;
    [check None] is free.  Cost: one clock read when armed. *)

val remaining : t -> float
(** Seconds until the deadline (negative once passed). *)
