(** Structured tracing: lightweight nested spans recorded into
    per-domain buffers, exported as Chrome [trace_event] JSON (open the
    file in Perfetto or [chrome://tracing]).

    Recording is {e zero-cost when disabled}: [with_span] runs its body
    directly after one [Atomic.get], allocates nothing and records
    nothing.  When enabled, each domain appends completed spans to its
    own {e bounded ring} (default {!default_capacity} spans, see
    {!set_capacity}): once full, each append overwrites the oldest span
    and bumps {!dropped} plus the [trace_spans_dropped_total] metrics
    counter, so a long-running traced daemon keeps a recent window
    instead of growing without bound.

    Spans opened while a {!Ctx} ambient context is installed
    automatically carry a ["trace_id"] argument, which is what connects
    the per-tier spans of one daemon request into a single tree.

    Each ring carries its own mutex (the daemon's connection handlers
    are systhreads sharing one domain's state), so {!spans} and
    {!to_string} are safe to call while recording continues; they
    snapshot each ring in turn. *)

type arg = Int of int | Float of float | Str of string

type span = {
  span_name : string;
  ts_us : float;  (** start time, µs since {!start} *)
  dur_us : float;  (** duration, µs *)
  tid : int;  (** numeric id of the recording domain *)
  depth : int;  (** nesting depth within its domain, 0 = top level *)
  args : (string * arg) list;
}

val start : unit -> unit
(** Clear every buffer, restart the clock, enable recording. *)

val stop : unit -> unit
val enabled : unit -> bool

val default_capacity : int
(** Per-domain ring capacity unless overridden: 65536 spans. *)

val set_capacity : int -> unit
(** Set the per-domain ring capacity.  Applies to domains that record
    their first span afterwards immediately, and to existing rings at
    the next {!start} (which reallocates them).  Raises [Invalid_arg]
    unless positive. *)

val capacity : unit -> int
(** The currently requested per-domain ring capacity. *)

val dropped : unit -> int
(** Spans overwritten before export since the last {!start}, summed
    over all rings.  Also surfaced as the [trace_spans_dropped_total]
    metrics counter when the registry is enabled. *)

val with_span : name:string -> ?args:(string * arg) list -> (unit -> 'a) -> 'a
(** Run the body inside a span.  The span is recorded (with the time
    actually spent) even if the body raises.  Nested calls on the same
    domain record increasing [depth]; spans on different domains carry
    different [tid]s. *)

val set_arg : string -> arg -> unit
(** Attach (or overwrite) an argument on the innermost open span of the
    calling domain — for values only known at the end of the work, like
    a pivot count.  No-op when disabled or outside any span. *)

val spans : unit -> span list
(** Completed spans of all domains, oldest first. *)

val to_string : unit -> string
(** The whole trace as the text of a Chrome [trace_event] file: one
    JSON object ([{"traceEvents": [...]}] with ["ph":"X"] complete
    events) and a newline, for a whole-file writer such as
    [Ucp_core.Checkpoint.write_atomic]. *)

val parse_file : string -> (span list, string) result
(** Strictly parse a trace file holding {!to_string}'s text back into spans
    ([depth] is not persisted and reads back as 0). *)
