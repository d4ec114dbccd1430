(* Tests for Ucp_obs: span nesting and per-domain buffers, the metrics
   registry under multi-domain contention, trace-file round-trip through
   the strict JSON parser, and the zero-output guarantee when disabled.

   Trace and Metrics are process-global, so every test puts the flags
   back the way it found them (off) and metrics tests reset the
   registry before counting. *)

module Trace = Ucp_obs.Trace
module Metrics = Ucp_obs.Metrics
module Log = Ucp_obs.Log
module Ctx = Ucp_obs.Ctx
module Expo = Ucp_obs.Expo

let with_tmp_file f =
  let path = Filename.temp_file "ucp_obs_test" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* tracing *)

let test_span_nesting () =
  Trace.start ();
  let r =
    Trace.with_span ~name:"outer" (fun () ->
        Trace.with_span ~name:"mid" (fun () ->
            Trace.with_span ~name:"leaf" (fun () -> 41))
        + 1)
  in
  Trace.stop ();
  Alcotest.(check int) "body result" 42 r;
  let spans = Trace.spans () in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let by_name n = List.find (fun s -> s.Trace.span_name = n) spans in
  let outer = by_name "outer" and mid = by_name "mid" and leaf = by_name "leaf" in
  Alcotest.(check int) "outer depth" 0 outer.Trace.depth;
  Alcotest.(check int) "mid depth" 1 mid.Trace.depth;
  Alcotest.(check int) "leaf depth" 2 leaf.Trace.depth;
  Alcotest.(check bool) "same domain" true
    (outer.Trace.tid = mid.Trace.tid && mid.Trace.tid = leaf.Trace.tid);
  (* children are contained in their parents, timewise *)
  let inside child parent =
    child.Trace.ts_us >= parent.Trace.ts_us
    && child.Trace.ts_us +. child.Trace.dur_us
       <= parent.Trace.ts_us +. parent.Trace.dur_us +. 1.0 (* clock slack *)
  in
  Alcotest.(check bool) "mid inside outer" true (inside mid outer);
  Alcotest.(check bool) "leaf inside mid" true (inside leaf mid)

let test_span_recorded_on_raise () =
  Trace.start ();
  (try
     Trace.with_span ~name:"boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  Trace.stop ();
  Alcotest.(check (list string)) "span survives the raise" [ "boom" ]
    (List.map (fun s -> s.Trace.span_name) (Trace.spans ()))

let test_set_arg () =
  Trace.start ();
  Trace.with_span ~name:"work" ~args:[ ("static", Trace.Str "yes") ] (fun () ->
      Trace.set_arg "pivots" (Trace.Int 1);
      (* overwrite must replace, not duplicate *)
      Trace.set_arg "pivots" (Trace.Int 17));
  Trace.stop ();
  match Trace.spans () with
  | [ s ] ->
    Alcotest.(check int) "two args" 2 (List.length s.Trace.args);
    Alcotest.(check bool) "pivots overwritten" true
      (List.assoc "pivots" s.Trace.args = Trace.Int 17);
    Alcotest.(check bool) "static arg kept" true
      (List.assoc "static" s.Trace.args = Trace.Str "yes")
  | spans -> Alcotest.failf "expected exactly one span, got %d" (List.length spans)

let test_spans_across_domains () =
  let domains = 4 and per_domain = 25 in
  Trace.start ();
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Trace.with_span ~name:"outer"
                ~args:[ ("domain", Trace.Int d) ]
                (fun () -> Trace.with_span ~name:"inner" (fun () -> ignore i))
            done))
  in
  List.iter Domain.join ds;
  Trace.stop ();
  let spans = Trace.spans () in
  Alcotest.(check int) "span count" (domains * per_domain * 2) (List.length spans);
  let tids =
    List.sort_uniq compare (List.map (fun s -> s.Trace.tid) spans)
  in
  Alcotest.(check int) "one tid per domain" domains (List.length tids);
  (* nesting holds within each domain: every inner span is depth 1 *)
  List.iter
    (fun s ->
      Alcotest.(check int)
        (s.Trace.span_name ^ " depth")
        (if s.Trace.span_name = "inner" then 1 else 0)
        s.Trace.depth)
    spans;
  List.iter (fun s -> Alcotest.(check bool) "dur >= 0" true (s.Trace.dur_us >= 0.0)) spans

let test_trace_round_trip () =
  Trace.start ();
  Trace.with_span ~name:"alpha"
    ~args:[ ("n", Trace.Int 42); ("x", Trace.Float 2.5); ("s", Trace.Str "he\"y\n") ]
    (fun () -> Trace.with_span ~name:"beta" (fun () -> ()));
  Trace.stop ();
  let written = Trace.spans () in
  with_tmp_file (fun path ->
      Ucp_core.Checkpoint.write_atomic ~path (Trace.to_string ());
      match Trace.parse_file path with
      | Error msg -> Alcotest.failf "parse_file: %s" msg
      | Ok parsed ->
        Alcotest.(check int) "span count" (List.length written) (List.length parsed);
        List.iter2
          (fun (w : Trace.span) (p : Trace.span) ->
            Alcotest.(check string) "name" w.Trace.span_name p.Trace.span_name;
            Alcotest.(check int) "tid" w.Trace.tid p.Trace.tid;
            Alcotest.(check (float 1e-3)) "ts" w.Trace.ts_us p.Trace.ts_us;
            Alcotest.(check (float 1e-3)) "dur" w.Trace.dur_us p.Trace.dur_us;
            Alcotest.(check bool) "args" true (w.Trace.args = p.Trace.args))
          written parsed)

let test_trace_parse_rejects_garbage () =
  with_tmp_file (fun path ->
      let oc = open_out path in
      output_string oc "{\"traceEvents\": [{\"name\": \"x\"}]}";
      close_out oc;
      match Trace.parse_file path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted an event with no ph/ts/dur/tid");
  with_tmp_file (fun path ->
      let oc = open_out path in
      output_string oc "{\"events\": []}";
      close_out oc;
      match Trace.parse_file path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted a file without traceEvents")

(* ------------------------------------------------------------------ *)
(* trace contexts *)

let test_ctx_determinism_and_hex () =
  let a = Ctx.derive ~seed:42 ~index:0 in
  let a' = Ctx.derive ~seed:42 ~index:0 in
  Alcotest.(check string) "derive is deterministic" (Ctx.trace_hex a)
    (Ctx.trace_hex a');
  let b = Ctx.derive ~seed:42 ~index:1 in
  Alcotest.(check bool) "indices give distinct traces" true
    (Ctx.trace_hex a <> Ctx.trace_hex b);
  let h = Ctx.trace_hex a in
  Alcotest.(check int) "16 hex chars" 16 (String.length h);
  (match Ctx.of_hex h with
  | Some id -> Alcotest.(check string) "hex round-trip" h (Ctx.to_hex id)
  | None -> Alcotest.fail "own hex does not parse back");
  (* ids with the top bit set (negative as int64) must round-trip too *)
  (match Ctx.of_hex "ffeeddccbbaa9988" with
  | Some id ->
    Alcotest.(check string) "top-bit id round-trips" "ffeeddccbbaa9988"
      (Ctx.to_hex id)
  | None -> Alcotest.fail "top-bit hex rejected");
  List.iter
    (fun s ->
      match Ctx.of_hex s with
      | None -> ()
      | Some _ -> Alcotest.failf "accepted malformed trace id %S" s)
    [
      "";
      "0123456789abcde" (* 15 chars *);
      "0123456789abcdef0" (* 17 chars *);
      "0123456789ABCDEF" (* uppercase *);
      "0123456789abcdeg" (* non-hex *);
      " 123456789abcdef" (* space *);
    ]

let test_ctx_ambient_restore () =
  Alcotest.(check bool) "no ambient ctx at rest" true (Ctx.current () = None);
  let outer = Ctx.derive ~seed:1 ~index:0 in
  let inner = Ctx.child outer in
  Ctx.with_ctx outer (fun () ->
      (match Ctx.current () with
      | Some c ->
        Alcotest.(check string) "outer visible" (Ctx.trace_hex outer)
          (Ctx.trace_hex c)
      | None -> Alcotest.fail "ambient ctx lost");
      Ctx.with_ctx inner (fun () ->
          match Ctx.current () with
          | Some c ->
            Alcotest.(check string) "child keeps the trace id"
              (Ctx.trace_hex outer) (Ctx.trace_hex c);
            Alcotest.(check string) "child gets its own span id"
              (Ctx.span_hex inner) (Ctx.span_hex c)
          | None -> Alcotest.fail "ambient ctx lost in child");
      match Ctx.current () with
      | Some c ->
        Alcotest.(check string) "outer restored after child"
          (Ctx.span_hex outer) (Ctx.span_hex c)
      | None -> Alcotest.fail "ambient ctx not restored");
  Alcotest.(check bool) "cleared after with_ctx" true (Ctx.current () = None);
  (try Ctx.with_ctx outer (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "cleared after a raise" true (Ctx.current () = None)

let test_span_carries_trace_id () =
  Trace.start ();
  let c = Ctx.derive ~seed:9 ~index:0 in
  Ctx.with_ctx c (fun () -> Trace.with_span ~name:"tagged" (fun () -> ()));
  Trace.with_span ~name:"untagged" (fun () -> ());
  Trace.stop ();
  let spans = Trace.spans () in
  let tagged = List.find (fun s -> s.Trace.span_name = "tagged") spans in
  let untagged = List.find (fun s -> s.Trace.span_name = "untagged") spans in
  Alcotest.(check bool) "ambient trace id stamped on the span" true
    (List.assoc_opt "trace_id" tagged.Trace.args
    = Some (Trace.Str (Ctx.trace_hex c)));
  Alcotest.(check bool) "no ambient ctx, no trace_id arg" true
    (List.assoc_opt "trace_id" untagged.Trace.args = None)

let test_trace_ring_bounded () =
  let saved = Trace.capacity () in
  Fun.protect
    ~finally:(fun () -> Trace.set_capacity saved)
    (fun () ->
      Trace.set_capacity 8;
      Trace.start ();
      for i = 0 to 19 do
        Trace.with_span ~name:(Printf.sprintf "s%d" i) (fun () -> ())
      done;
      Trace.stop ();
      let spans = Trace.spans () in
      Alcotest.(check int) "ring keeps exactly capacity spans" 8
        (List.length spans);
      Alcotest.(check int) "overwrites counted as drops" 12 (Trace.dropped ());
      Alcotest.(check (list string)) "newest spans survive, oldest-first"
        (List.init 8 (fun i -> Printf.sprintf "s%d" (i + 12)))
        (List.map (fun s -> s.Trace.span_name) spans);
      (* a fresh start resets both the ring and the drop count *)
      Trace.start ();
      Trace.stop ();
      Alcotest.(check int) "drop count reset" 0 (Trace.dropped ());
      Alcotest.(check int) "ring reset" 0 (List.length (Trace.spans ())))

(* ------------------------------------------------------------------ *)
(* metrics *)

let test_metrics_contention () =
  let domains = 4 and iters = 10_000 in
  Metrics.enable ();
  Metrics.reset ();
  let c = Metrics.counter "obs_test_total" in
  let fc = Metrics.fcounter "obs_test_fsum" in
  let h = Metrics.histogram "obs_test_hist" ~buckets:[| 1.0; 2.0; 3.0 |] in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to iters do
              Metrics.incr c;
              Metrics.fadd fc 1.0;
              (* observations cycle the three finite buckets plus the
                 overflow bucket, [iters/4] each *)
              Metrics.observe h (float_of_int (1 + (i mod 4)))
            done))
  in
  List.iter Domain.join ds;
  Metrics.disable ();
  let expected = domains * iters in
  (match Metrics.find "obs_test_total" with
  | Some (Metrics.Counter n) -> Alcotest.(check int) "exact counter" expected n
  | _ -> Alcotest.fail "counter missing");
  (match Metrics.find "obs_test_fsum" with
  | Some (Metrics.Fcounter x) ->
    (* sums of 1.0 up to 40000 are exactly representable *)
    Alcotest.(check (float 0.0)) "exact fcounter" (float_of_int expected) x
  | _ -> Alcotest.fail "fcounter missing");
  match Metrics.find "obs_test_hist" with
  | Some (Metrics.Histogram { counts; sum; count; _ }) ->
    Alcotest.(check int) "observation count" expected count;
    Alcotest.(check (array int)) "no torn buckets"
      (Array.make 4 (expected / 4))
      counts;
    Alcotest.(check (float 1e-6)) "sum"
      (float_of_int (domains * iters / 4 * (1 + 2 + 3 + 4)))
      sum
  | _ -> Alcotest.fail "histogram missing"

let test_metrics_kind_clash () =
  Metrics.reset ();
  ignore (Metrics.counter "obs_test_kind");
  Alcotest.check_raises "re-register as gauge"
    (Invalid_argument "Metrics: obs_test_kind is already registered as a counter")
    (fun () -> ignore (Metrics.gauge "obs_test_kind"))

let test_metrics_idempotent_registration () =
  Metrics.enable ();
  Metrics.reset ();
  let a = Metrics.counter "obs_test_same" in
  let b = Metrics.counter "obs_test_same" in
  Metrics.add a 2;
  Metrics.add b 3;
  Metrics.disable ();
  match Metrics.find "obs_test_same" with
  | Some (Metrics.Counter 5) -> ()
  | v ->
    Alcotest.failf "expected one shared counter at 5, got %s"
      (match v with Some (Metrics.Counter n) -> string_of_int n | _ -> "none")

let test_histogram_bucket_edges () =
  Metrics.enable ();
  Metrics.reset ();
  let h = Metrics.histogram "obs_test_edges" ~buckets:[| 0.5; 1.0; 2.0 |] in
  (* inclusive upper bounds, Prometheus [le] semantics: an observation
     at exactly a bound lands in that bound's bucket, anything past the
     last bound lands in the overflow bucket *)
  List.iter (Metrics.observe h) [ 0.5; 1.0; 2.0; 0.49; 2.00001; 1000.0 ];
  Metrics.disable ();
  match Metrics.find "obs_test_edges" with
  | Some (Metrics.Histogram { bounds; counts; count; _ }) ->
    Alcotest.(check int) "observation count" 6 count;
    Alcotest.(check (array int)) "per-bucket counts" [| 2; 1; 1; 2 |] counts;
    Alcotest.(check (array (float 0.0))) "bounds kept" [| 0.5; 1.0; 2.0 |] bounds
  | _ -> Alcotest.fail "histogram missing"

(* ------------------------------------------------------------------ *)
(* Prometheus exposition *)

let golden_dump =
  [
    ("requests_total", Metrics.Counter 3);
    ("queue_depth", Metrics.Gauge 2.0);
    ( "serve_latency_s{tier=\"cache\"}",
      Metrics.Histogram
        { bounds = [| 0.5; 1.0 |]; counts = [| 2; 1; 1 |]; sum = 2.75; count = 4 } );
    ( "serve_latency_s{tier=\"cold\"}",
      Metrics.Histogram
        { bounds = [| 0.5; 1.0 |]; counts = [| 0; 0; 0 |]; sum = 0.0; count = 0 } );
  ]

let golden_text =
  String.concat "\n"
    [
      "# TYPE requests_total counter";
      "requests_total 3";
      "# TYPE queue_depth gauge";
      "queue_depth 2";
      "# TYPE serve_latency_s histogram";
      "serve_latency_s_bucket{tier=\"cache\",le=\"0.5\"} 2";
      "serve_latency_s_bucket{tier=\"cache\",le=\"1\"} 3";
      "serve_latency_s_bucket{tier=\"cache\",le=\"+Inf\"} 4";
      "serve_latency_s_sum{tier=\"cache\"} 2.75";
      "serve_latency_s_count{tier=\"cache\"} 4";
      "serve_latency_s_bucket{tier=\"cold\",le=\"0.5\"} 0";
      "serve_latency_s_bucket{tier=\"cold\",le=\"1\"} 0";
      "serve_latency_s_bucket{tier=\"cold\",le=\"+Inf\"} 0";
      "serve_latency_s_sum{tier=\"cold\"} 0";
      "serve_latency_s_count{tier=\"cold\"} 0";
      "";
    ]

let test_expo_golden () =
  Alcotest.(check string) "byte-exact exposition" golden_text
    (Expo.render golden_dump)

(* ------------------------------------------------------------------ *)
(* zero output when disabled *)

let test_disabled_emits_nothing () =
  Trace.start ();
  Trace.stop ();
  (* both flags off: instrumented code must run and record nothing *)
  Alcotest.(check bool) "trace disabled" false (Trace.enabled ());
  Alcotest.(check bool) "metrics disabled" false (Metrics.enabled ());
  let r = Trace.with_span ~name:"ghost" (fun () -> 7) in
  Trace.set_arg "k" (Trace.Int 1);
  Alcotest.(check int) "body still runs" 7 r;
  Alcotest.(check int) "no spans recorded" 0 (List.length (Trace.spans ()));
  Metrics.reset ();
  let c = Metrics.counter "obs_test_ghost" in
  Metrics.add c 5;
  Metrics.incr c;
  (match Metrics.find "obs_test_ghost" with
  | Some (Metrics.Counter 0) -> ()
  | _ -> Alcotest.fail "disabled counter must stay at 0");
  let h = Metrics.histogram "obs_test_ghost_h" ~buckets:[| 1.0 |] in
  Metrics.observe h 0.5;
  match Metrics.find "obs_test_ghost_h" with
  | Some (Metrics.Histogram { count = 0; sum = 0.0; _ }) -> ()
  | _ -> Alcotest.fail "disabled histogram must stay empty"

let test_disabled_jsonl_unchanged () =
  (* the machine-readable summary only gains a "metrics" field when a
     dump is passed; an empty/absent dump leaves the line untouched *)
  let base =
    Ucp_core.Report.sweep_jsonl ~wall_s:1.0 ~jobs:1 []
  in
  let with_empty = Ucp_core.Report.sweep_jsonl ~wall_s:1.0 ~jobs:1 ~metrics:[] [] in
  Alcotest.(check string) "empty dump adds nothing" base with_empty;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "no metrics field" false (contains base "\"metrics\"")

(* ------------------------------------------------------------------ *)
(* log levels *)

let test_log_levels () =
  let saved = Log.level () in
  Fun.protect
    ~finally:(fun () -> Log.set_level saved)
    (fun () ->
      Log.set_level Log.Debug;
      Alcotest.(check bool) "debug enables info" true (Log.enabled Log.Info);
      Log.set_level Log.Warn;
      Alcotest.(check bool) "warn disables info" false (Log.enabled Log.Info);
      Log.set_level Log.Quiet;
      Alcotest.(check bool) "quiet disables error" false (Log.enabled Log.Error));
  (match Log.level_of_string "info" with
  | Ok Log.Info -> ()
  | _ -> Alcotest.fail "level_of_string info");
  match Log.level_of_string "loud" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a bogus level"

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "recorded on raise" `Quick test_span_recorded_on_raise;
          Alcotest.test_case "set_arg" `Quick test_set_arg;
          Alcotest.test_case "across domains" `Quick test_spans_across_domains;
          Alcotest.test_case "round trip" `Quick test_trace_round_trip;
          Alcotest.test_case "parse rejects garbage" `Quick
            test_trace_parse_rejects_garbage;
        ] );
      ( "ctx",
        [
          Alcotest.test_case "determinism and hex round-trip" `Quick
            test_ctx_determinism_and_hex;
          Alcotest.test_case "ambient save/restore" `Quick
            test_ctx_ambient_restore;
          Alcotest.test_case "spans carry the ambient trace id" `Quick
            test_span_carries_trace_id;
          Alcotest.test_case "span ring is bounded" `Quick
            test_trace_ring_bounded;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "4-domain contention" `Quick test_metrics_contention;
          Alcotest.test_case "kind clash" `Quick test_metrics_kind_clash;
          Alcotest.test_case "idempotent registration" `Quick
            test_metrics_idempotent_registration;
          Alcotest.test_case "bucket edge semantics" `Quick
            test_histogram_bucket_edges;
        ] );
      ( "expo",
        [
          Alcotest.test_case "golden render" `Quick test_expo_golden;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "emits nothing" `Quick test_disabled_emits_nothing;
          Alcotest.test_case "jsonl unchanged" `Quick test_disabled_jsonl_unchanged;
        ] );
      ("log", [ Alcotest.test_case "levels" `Quick test_log_levels ]);
    ]
