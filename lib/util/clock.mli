(** The one clock every duration and deadline reads.

    Readings are seconds on the system's monotonic clock, from an
    arbitrary origin: they never step backwards when the wall-clock time
    is adjusted, so only differences between two readings mean
    anything. *)

val now_s : unit -> float
(** Seconds since an arbitrary fixed origin; successive reads never
    decrease. *)
