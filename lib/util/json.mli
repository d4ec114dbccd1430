(** A minimal, strict JSON reader/writer: the repository's one JSON
    reader (Chrome [trace_event] files, sweep JSONL lines, the serve
    protocol, checkpoint journals and serve store entries, the fuzz
    corpus) and its tests.

    The parser is deliberately strict: it rejects trailing garbage,
    comments, unquoted keys, raw control bytes inside strings and
    malformed numbers, so a "well-formed trace" check through {!parse}
    means the file really is standard JSON.  Numbers are held as
    [float], like JavaScript: a float token reads as the double
    [float_of_string] gives it (so a [%.17g] rendering reads back
    exactly), and integers round-trip exactly below 2{^53}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of { pos : int; msg : string }

val parse : string -> (t, string) result
(** Parse one complete JSON value covering the whole input (leading and
    trailing whitespace allowed, nothing else). *)

val parse_exn : string -> t
(** @raise Parse_error on malformed input. *)

val to_string : t -> string
(** Compact (no-whitespace) rendering; [parse (to_string v) = Ok v] up
    to float formatting. *)

(** {2 Accessors} — all total, returning [None] on a shape mismatch. *)

val member : string -> t -> t option
(** First binding of the key in an object. *)

val to_float : t -> float option
val to_int : t -> int option
(** Only for numbers with an integral value of magnitude below 2{^53}:
    a larger token may have been rounded when it was read (2{^53}+1
    reads as 2{^53}), so it is [None] rather than a wrong integer. *)

val to_str : t -> string option
val to_list : t -> t list option
