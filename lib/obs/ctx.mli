(** Request-scoped trace context.

    A context carries a 64-bit trace id (shared by every span and log
    line of one request) and a span id (one hop within it).  Ids are
    {e deterministic}: {!derive} maps a (seed, index) pair to the same
    id on every run, so two identically seeded client runs assign
    identical trace ids — which is what lets the CI byte-compare
    access-log streams.

    The ambient binding installed by {!with_ctx} is keyed by the
    executing (domain, thread) pair — safe both for Domain-pool workers
    and for the daemon's systhread connection handlers, which share one
    domain's DLS. *)

type t = { trace_id : int64; span_id : int64 }

val derive : seed:int -> index:int -> t
(** Deterministic root context for the [index]-th request of a client
    seeded with [seed] (SplitMix64; trace id never 0). *)

val root : int64 -> t
(** Context adopting an externally assigned trace id (span id derived
    from it). *)

val child : t -> t
(** Same trace, fresh deterministic span id (derived from the parent's
    trace and span ids — no global state). *)

val to_hex : int64 -> string
(** Fixed-width 16-char lowercase hex. *)

val of_hex : string -> int64 option
(** Strict inverse of {!to_hex}: exactly 16 lowercase hex digits. *)

val trace_hex : t -> string
val span_hex : t -> string

val with_ctx : t -> (unit -> 'a) -> 'a
(** Run [f] with [t] as the ambient context of the calling (domain,
    thread); restores the previous binding on exit, even on raise. *)

val current : unit -> t option
(** The ambient context of the calling (domain, thread), if any. *)
