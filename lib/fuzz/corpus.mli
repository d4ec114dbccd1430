(** The replayable reproducer corpus: one shrunk finding per
    single-line JSON file.

    An {!entry} is a complete reproducer — generator provenance
    ([seed], size class), use-case axes, oracle, normalized signature,
    injected fault and the shrunk DSL term in the
    {!Ucp_workloads.Dsl.to_string} format — so a checked-in corpus pins
    both directions in CI: fault entries must still be {e caught},
    clean-bug entries must {e stop} reproducing once fixed. *)

type entry = {
  e_seed : int;  (** generator seed of the original (pre-shrink) program *)
  e_cls : string;  (** generator size class *)
  e_policy : Ucp_policy.id;
  e_config_id : string;
  e_tech : string;  (** technology label, e.g. ["45nm"] *)
  e_oracle : string;
  e_signature : string;
  e_detail : string;
  e_fault : Oracle.fault option;
      (** [Some _] for chaos entries whose replay must end in [Caught] *)
  e_dsl : string;  (** shrunk program, [Dsl.to_string] s-expression *)
  e_shrink_steps : int;
}

val of_finding :
  seed:int ->
  cls:string ->
  fault:Oracle.fault option ->
  shrunk:Shrink.prog ->
  shrink_steps:int ->
  Oracle.target ->
  Oracle.finding ->
  entry

val to_line : entry -> string
(** Single-line JSON (no trailing newline). *)

val of_line : string -> (entry, string) result

val filename : entry -> string
(** ["<signature slug>-<crc32 of line>.json"] — stable, content
    addressed, collision-safe across distinct programs with one
    signature. *)

val save : dir:string -> entry -> string
(** Atomic, fsynced write ({!Ucp_core.Checkpoint.write_atomic}) into
    [dir] (created if missing); returns the path.  Idempotent for
    identical entries. *)

val load : string -> (entry, string) result

val list : dir:string -> string list
(** All [.json] entries under [dir], sorted by name ([[]] if the
    directory does not exist). *)

val replay : ?deadline:Ucp_util.Deadline.t -> entry -> (unit, string) result
(** Re-run the stored oracle on the stored program.  [Ok] when the
    recorded signature reproduces — [Caught] for fault entries,
    [Finding] for clean ones; anything else ([Pass], a different
    signature, an unparseable entry) is [Error] with the reason. *)
