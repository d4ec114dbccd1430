(** Hit/miss classification of instruction references, the output of
    cache-aware WCET analysis [8, 21]. *)

type t =
  | Always_hit  (** proven cached by must analysis *)
  | Always_miss  (** proven absent by may analysis *)
  | Not_classified  (** neither; treated as a miss in WCET bounds *)

val is_wcet_miss : t -> bool
(** Does the WCET bound charge the miss penalty for this reference? *)

val to_string : t -> string
