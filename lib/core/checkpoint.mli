(** Crash-safe checkpoint/resume for the sweep.

    The journal is a JSONL file: a header line carrying a fingerprint
    of the sweep grid, then one line per {e completed} use case with
    the full record (floats serialized losslessly, so a resumed sweep
    reproduces an uninterrupted run bit for bit).  Lines are appended
    and fsynced as cases finish — an acknowledged write survives not
    just a process crash but a power cut; a crash can tear at most the
    final line, which {!start} tolerates and drops.  Failed / timed-out /
    invariant-violating cases are {e not} journaled — a resume retries
    them.

    Lines are written by [Printf] templates and read back through
    {!Ucp_util.Json}, the repository's one JSON reader; the same line
    is the [ucp serve] store entry of a case.

    The fingerprint hashes the suite, the configuration grid, the
    technology list, the replacement-policy list and the refine mode;
    resuming against a journal written for a different grid — including
    an LRU-only journal against a multi-policy grid, or a journal swept
    under a different refine mode — is rejected instead of silently
    mixing records. *)

type t

val fingerprint :
  ?policies:Ucp_policy.id list ->
  ?refine:Ucp_refine.Mode.t ->
  programs:(string * Ucp_isa.Program.t) list ->
  configs:(string * Ucp_cache.Config.t) list ->
  techs:Ucp_energy.Tech.t list ->
  unit ->
  string
(** Hex digest of the sweep grid (program names and sizes, config ids
    and geometries, tech labels, replacement policies — default
    [[Lru]] — and the refine mode — default [Off] — plus the journal
    format version). *)

val start :
  path:string -> fingerprint:string -> resume:bool -> t
(** Open a journal.  With [resume:false] the file is replaced by a
    fresh header.  With [resume:true] an existing journal is replayed
    first: its header fingerprint must match (otherwise [Failure]),
    complete record lines populate {!completed}, and a torn trailing
    line is dropped; a missing or empty file degrades to a fresh start.
    The header and the replayed records are then rewritten through
    {!write_atomic}, so a crash during [start] leaves the old journal
    whole, and the file is reopened for appending.
    @raise Failure on a fingerprint mismatch or a corrupt line in the
    middle of the journal;
    @raise Sys_error if the path cannot be opened. *)

val completed : t -> (string, Experiments.record) Hashtbl.t
(** Records replayed from the journal at {!start} time, keyed by
    {!Experiments.case_id}.  Empty unless resuming. *)

val record : t -> id:string -> Experiments.record -> unit
(** Append one finished case, flush {e and fsync} before returning —
    once [record] returns, the line is on the device.  Thread-safe
    (worker domains journal concurrently). *)

val close : t -> unit

(** {2 Serialization} (also the [ucp serve] store format) *)

val record_line : id:string -> Experiments.record -> string
(** One journal line (no trailing newline).  Floats are written with
    [%.17g], so they read back exactly. *)

val parse_line : string -> (string * Experiments.record) option
(** Inverse of {!record_line}; [None] on malformed input: a line that
    is not one JSON object, a missing or ill-typed field, an integer
    of magnitude 2{^53} or more, an unknown technology, policy or
    refine mode, or a geometry {!Ucp_cache.Config.make} rejects.
    Lines written before the additive audit, refine or
    [refine_budget_exhausted] fields existed still parse. *)

val write_atomic : path:string -> string -> unit
(** Write a whole file via temp-file + fsync + rename (followed by a
    best-effort parent-directory fsync), so readers never observe a
    half-written output and a crash — including a power cut — leaves
    either the old file or the complete new one. *)

val synced_writes : unit -> int
(** Process-wide count of fsyncs issued by this module ({!record},
    {!start}, {!write_atomic}).  Exposed so a test can pin that
    acknowledged journal appends really hit the sync path. *)
