(** Leveled, domain-safe logging: every diagnostic of the tool flows
    through one stderr sink whose lines never interleave mid-line, even
    when emitted from concurrent worker domains.

    The threshold defaults to [Warn] and is taken from the [UCP_LOG]
    environment variable at startup ([debug|info|warn|error|quiet]); a
    malformed value falls back to [Warn] and is reported once on the
    first emission rather than crashing module initialization. *)

type level = Debug | Info | Warn | Error | Quiet

val level_of_string : string -> (level, string) result

val set_level : level -> unit
val level : unit -> level

val enabled : level -> bool
(** Would a message at this level be emitted right now? *)

val debug : ('a, unit, string, unit) format4 -> 'a
val info : ('a, unit, string, unit) format4 -> 'a
val warn : ('a, unit, string, unit) format4 -> 'a
val error : ('a, unit, string, unit) format4 -> 'a

val out : string -> unit
(** Write one line to the sink unconditionally (no level filter, no
    prefix) — for output the user explicitly asked for, like the
    [--heartbeat] line, that must still interleave cleanly with
    concurrent log messages. *)
