(** Prometheus text exposition for the {!Metrics} registry.

    Registry names may carry a literal label set —
    [serve_latency_s{tier="cache"}] — which {!render} splits into a
    base name and labels so one [# TYPE] line covers the family and
    histogram suffixes compose with the labels:

    {v
    # TYPE serve_latency_s histogram
    serve_latency_s_bucket{tier="cache",le="0.001"} 12
    ...
    serve_latency_s_bucket{tier="cache",le="+Inf"} 14
    serve_latency_s_sum{tier="cache"} 0.42
    serve_latency_s_count{tier="cache"} 14
    v}

    {!render} is pure — it formats whatever dump it is given — so
    tests can pin its output byte-exactly. *)

val render : (string * Metrics.value) list -> string
(** Exposition text for a {!Metrics.dump}-shaped list.  Counters and
    fcounters render as [counter], gauges as [gauge], histograms as
    cumulative [_bucket]/[_sum]/[_count] rows with a [+Inf] bucket. *)

val fmt_float : float -> string
(** The number format used by {!render}: integers without exponent,
    [+Inf]/[-Inf]/[NaN] spelled as Prometheus expects. *)
