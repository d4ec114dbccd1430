(* ucpbench: the repository benchmark.

     ucpbench.exe [run] [--workload W] [--seed N] [--seconds S] [--trace 0|1]
     ucpbench.exe check

   [run] measures one workload for about S seconds (default 25) with
   inputs made from seed N (default 1) and prints one line per metric,
   the sample counts, and as its last line one JSON object
   {"correct","attempted","failed","metrics"}.  Without --workload it
   runs every workload, one child process each, one after another.
   --trace 0 (the default) reports the end-to-end metrics; --trace 1
   re-runs the work with a span around every layer call and reports
   the per-layer metrics instead.  The exit code is 0 only when every
   output was checked correct.

   [check] is timing-free: BENCHMARK.json names exactly the workloads
   and metrics this harness emits, and every seed-1 workload has its
   stated size and enumerates identically twice.

   Correctness checks in every run: each record passes
   [Experiments.check_invariants]; each batch pass's record stream
   (Report.record_json per case, in sweep order, with the timing-only
   "audit_s" field removed) matches the MD5 pinned in
   ucpbench/baseline.json, which also makes the traced re-composition
   reproduce the untraced records; every serve answer for an id is
   byte-identical across the cold, store and memory tiers. *)

module Experiments = Ucp_core.Experiments
module Report = Ucp_core.Report
module Json = Ucp_util.Json

let end_to_end =
  [
    ("ops_per_s", "1/s");
    ("op_p50_band_ms", "ms");
    ("op_p90_band_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("isa.layout.self_s", "s");
    ("cfg.vivu.self_s", "s");
    ("cfg.vivu.nodes", "count");
    ("wcet.analysis.self_s", "s");
    ("wcet.analysis.calls", "count");
    ("wcet.analysis.fixpoint_passes", "count");
    ("wcet.path.self_s", "s");
    ("prefetch.optimizer.self_s", "s");
    ("prefetch.optimizer.reanalysis_s", "s");
    ("prefetch.optimizer.rounds", "count");
    ("prefetch.optimizer.fixpoint_passes", "count");
    ("prefetch.optimizer.insertions", "count");
    ("prefetch.optimizer.rejected", "count");
    ("prefetch.optimizer.insertions_per_round", "ratio");
    ("refine.explore.self_s", "s");
    ("refine.explore.calls", "count");
    ("refine.explore.states", "count");
    ("refine.explore.budget_exhausted", "count");
    ("refine.explore.reclaimed_ratio", "ratio");
    ("sim.simulator.self_s", "s");
    ("sim.simulator.calls", "count");
    ("sim.simulator.instructions", "count");
    ("sim.simulator.instr_per_s", "1/s");
    ("energy.self_s", "s");
    ("verify.audit.self_s", "s");
    ("verify.audit.obligations", "count");
    ("verify.audit.refine_rerun_s", "s");
    ("verify.audit.ipet_fastpath", "count");
    ("verify.audit.ipet_slowpath", "count");
    ("serve.memory.requests", "count");
    ("serve.memory.busy_s", "s");
    ("serve.memory.server_s", "s");
    ("serve.memory.p50_ms", "ms");
    ("serve.memory.p99_ms", "ms");
    ("serve.store.requests", "count");
    ("serve.store.busy_s", "s");
    ("serve.store.server_s", "s");
    ("serve.store.p50_ms", "ms");
    ("serve.store.p99_ms", "ms");
    ("serve.cold.requests", "count");
    ("serve.cold.busy_s", "s");
    ("serve.cold.server_s", "s");
    ("serve.failed", "count");
    ("runtime.minor_words", "words");
    ("runtime.major_collections", "count");
    ("other.self_s", "s");
    ("trace.overhead_ratio", "ratio");
    ("trace.spans_dropped", "count");
  ]

(* {2 Record-stream digests} *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

(* the audit's wall-clock cost is the one field of a record that varies
   between identical runs *)
let strip_audit_s line =
  let key = {|,"audit_s":|} in
  match find_sub line key with
  | None -> line
  | Some i ->
    let j = ref (i + String.length key) in
    while !j < String.length line && line.[!j] <> ',' && line.[!j] <> '}' do
      incr j
    done;
    String.sub line 0 i ^ String.sub line !j (String.length line - !j)

let baseline_path = Filename.concat "ucpbench" "baseline.json"

let pinned_digest name =
  let text = In_channel.with_open_bin baseline_path In_channel.input_all in
  match Option.bind (Json.member "digests" (Json.parse_exn text)) (Json.member name) with
  | Some (Json.Str d) -> d
  | Some _ | None -> failwith (Printf.sprintf "%s: no digest pinned for %s" baseline_path name)

(* {2 Batch workloads} *)

type pass = {
  samples : Measure.sample array;  (** per case, sweep order *)
  digest : string;
  failures : string list;
}

(* Evaluate every group once, in [order], probing the host between
   cases when [host] is given.  Each group gets a fresh evaluator (and
   so a fresh analysis memo): the memo is only ever hit within a group,
   and dropping it afterwards keeps the live heap, and so peak memory,
   independent of the order groups run in. *)
let batch_pass ?host (pop : Workloads.population) order make_eval =
  let n = Array.length pop.cases in
  let lines = Array.make n "" and samples = Array.make n { Measure.t0 = 0.0; dt = 0.0 } in
  let failures = ref [] in
  Array.iter
    (fun group ->
      let eval = make_eval () in
      Array.iter
        (fun i ->
          let c = pop.cases.(i) in
          let fail msg =
            failures := Printf.sprintf "%s: %s" (Experiments.case_id c) msg :: !failures
          in
          let t0 = Measure.now () in
          let r = try Ok (eval c) with e -> Error e in
          samples.(i) <- { t0; dt = Measure.now () -. t0 };
          (match r with
          | Ok r -> (
            lines.(i) <- strip_audit_s (Report.record_json r);
            match Experiments.check_invariants r with Ok () -> () | Error msg -> fail msg)
          | Error e -> fail (Printexc.to_string e));
          Option.iter Measure.maybe_probe host)
        group)
    order;
  let stream = String.concat "" (Array.to_list (Array.map (fun l -> l ^ "\n") lines)) in
  { samples; digest = Digest.to_hex (Digest.string stream); failures = !failures }

(* What a batch run does before its first case. *)
let batch_setup name (b : Workloads.batch) ~seed =
  let pop = Workloads.population b in
  let order = Workloads.group_order ~seed name pop in
  let models = Experiments.model_table (Workloads.batch_configs b) Ucp_energy.Tech.all in
  let model (c : Experiments.case) = Hashtbl.find models (c.case_config, c.case_tech) in
  (pop, order, model)

(* Set-up time as a user pays it: start this executable in set-up-only
   mode and wait for it, 21 times. *)
let probe_setups host name ~seed =
  List.init 21 (fun _ ->
      Measure.timed host (fun () ->
          let pid =
            Unix.create_process Sys.executable_name
              [| Sys.executable_name; "setup-probe"; "--workload"; name; "--seed"; string_of_int seed |]
              Unix.stdin Unix.stdout Unix.stderr
          in
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> failwith "set-up probe failed"))

let run_batch name (b : Workloads.batch) ~seed ~seconds ~traced =
  let pop, order, model = batch_setup name b ~seed in
  let pinned = pinned_digest name in
  let failures (p : pass) =
    p.failures
    @ if p.digest = pinned then []
      else [ Printf.sprintf "record stream digest %s, pinned %s" p.digest pinned ]
  in
  let untraced () =
    let memo = Experiments.Analysis_memo.create () in
    fun c -> Experiments.run_case ~memo ~model:(model c) ~refine:Ucp_refine.Mode.Nc ~audit:b.audit c
  in
  let cases = Array.length pop.cases in
  if not traced then begin
    let (setups, passes, rss), scale, host_note =
      Measure.probed (fun host ->
          let setups = probe_setups host name ~seed in
          let rss = ref 0.0 in
          let passes =
            Measure.passes ~seconds (fun () ->
                let p = batch_pass ~host pop order untraced in
                (* after the first pass: the peak of a fixed amount of work *)
                if !rss = 0.0 then rss := Measure.peak_rss_mb ();
                p)
          in
          (setups, passes, !rss))
    in
    let samples = List.map (fun p -> p.samples) passes in
    {
      Measure.attempted = cases * List.length passes;
      failures = List.concat_map failures passes;
      metrics =
        Measure.op_metrics scale samples
        @ [
            ("setup_s", Measure.median (List.map scale setups));
            ("peak_rss_mb", rss);
          ];
      as_measured =
        Measure.op_metrics Measure.raw samples
        @ [ ("setup_s", Measure.median (List.map Measure.raw setups)) ];
      notes =
        [
          Printf.sprintf "%d passes of %d cases; %d set-ups" (List.length passes) cases
            (List.length setups);
          host_note;
        ];
    }
  end
  else begin
    (* one untraced pass (reference time and allocation), then one
       traced pass of the same work; the tracing overhead compares the
       two at nominal host speed *)
    Ucp_obs.Metrics.enable ();
    Ucp_obs.Trace.set_capacity (1 lsl 18);
    let acc = Layers.create () in
    let (gc0, reference, gc1, traced_pass), scale, host_note =
      Measure.probed (fun host ->
          let gc0 = Gc.quick_stat () in
          let reference = batch_pass ~host pop order untraced in
          let gc1 = Gc.quick_stat () in
          let traced_pass =
            batch_pass ~host pop order (fun () ->
                let memo = Hashtbl.create 1 in
                fun c -> Layers.traced acc memo ~model:(model c) ~audit:b.audit c)
          in
          (gc0, reference, gc1, traced_pass))
    in
    {
      Measure.attempted = 2 * cases;
      failures = failures reference @ failures traced_pass;
      metrics =
        Layers.metrics acc ~wall:(Measure.total Measure.raw traced_pass.samples)
        @ [
            ("runtime.minor_words", gc1.Gc.minor_words -. gc0.Gc.minor_words);
            ( "runtime.major_collections",
              float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
            ( "trace.overhead_ratio",
              (Measure.total scale traced_pass.samples /. Measure.total scale reference.samples)
              -. 1.0 );
          ];
      as_measured = [];
      notes =
        [
          Printf.sprintf "1 untraced pass (%.3f s) and 1 traced pass (%.3f s) of %d cases"
            (Measure.total Measure.raw reference.samples)
            (Measure.total Measure.raw traced_pass.samples)
            cases;
          host_note;
        ];
    }
  end

(* {2 Output} *)

let emit name ~traced (r : Measure.result) =
  let table = if traced then per_layer else end_to_end in
  List.iter
    (fun (m, _) ->
      if not (List.mem_assoc m table) then failwith ("metric missing from the table: " ^ m))
    r.metrics;
  let value m =
    match List.assoc_opt m r.metrics with
    | Some v when Float.is_finite v -> v
    | Some _ -> failwith ("metric is not finite: " ^ m)
    | None when traced -> 0.0
    | None -> failwith ("end-to-end metric not measured: " ^ m)
  in
  let values = List.map (fun (m, u) -> (m, value m, u)) table in
  List.iter
    (fun (m, v, u) ->
      match List.assoc_opt m r.as_measured with
      | None -> Printf.printf "%s %s %.6g %s\n" name m v u
      | Some raw -> Printf.printf "%s %s %.6g %s (as measured %.6g)\n" name m v u raw)
    values;
  List.iter (fun n -> Printf.printf "%s samples %s\n" name n) r.notes;
  List.iter (fun f -> Printf.eprintf "%s FAILED %s\n" name f) (List.rev r.failures);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (r.failures = []));
            ("attempted", Json.Num (float_of_int r.attempted));
            ("failed", Json.Num (float_of_int (List.length r.failures)));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (m, v, u) -> (m, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
                   values) );
          ]))

(* {2 check} *)

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let expected_sizes =
  [ ("lru-small", 140); ("lru-large", 214); ("policies-audit", 280); ("serve-mix", 64 + 8000) ]

let check_problems () =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
  | Error e -> problem "BENCHMARK.json: %s" e
  | Ok j ->
    let entries key fields =
      match Option.bind (Json.member key j) Json.to_list with
      | None -> problem "BENCHMARK.json: no %s list" key; []
      | Some l ->
        List.map
          (fun e -> List.map (fun f -> Option.bind (Json.member f e) Json.to_str) fields)
          l
    in
    let compare_list key declared emitted =
      if declared <> emitted then problem "BENCHMARK.json %s differ from the harness's" key
    in
    compare_list "workloads"
      (entries "workloads" [ "name" ])
      (List.map (fun (w : Workloads.t) -> [ Some w.name ]) Workloads.all);
    let metric_entries table = List.map (fun (m, u) -> [ Some m; Some u ]) table in
    compare_list "end_to_end" (entries "end_to_end" [ "name"; "unit" ]) (metric_entries end_to_end);
    compare_list "per_layer" (entries "per_layer" [ "name"; "unit" ]) (metric_entries per_layer));
  List.iter
    (fun n -> if not (valid_name n) then problem "invalid name %S" n)
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all
    @ List.map fst end_to_end @ List.map fst per_layer);
  List.iter
    (fun (w : Workloads.t) ->
      let enumerate () =
        match w.kind with
        | Workloads.Batch b ->
          let pop, order, _ = batch_setup w.name b ~seed:1 in
          ( Array.to_list (Array.map Experiments.case_id pop.cases),
            Array.to_list (Array.map (fun g -> Array.to_list g) order) |> List.concat
            |> List.map string_of_int )
        | Workloads.Serve ->
          let ids, queries = Workloads.serve_inputs ~seed:1 w.name in
          (Array.to_list ids, Array.to_list queries)
      in
      let ((a, b) as first) = enumerate () in
      if first <> enumerate () then problem "%s: seed 1 enumerates differently twice" w.name;
      let size = List.length a + match w.kind with Workloads.Serve -> List.length b | _ -> 0 in
      if Some size <> List.assoc_opt w.name expected_sizes then
        problem "%s: %d operations at seed 1" w.name size;
      match w.kind with
      | Workloads.Batch _ -> (
        try ignore (pinned_digest w.name) with Failure msg | Sys_error msg -> problem "%s" msg)
      | Workloads.Serve -> ())
    Workloads.all;
  List.rev !problems

(* {2 Command line} *)

let usage () =
  prerr_endline
    "usage: ucpbench.exe [run] [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n\
    \       ucpbench.exe check";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let command, flags =
    match args with
    | [ "serve-daemon"; socket; store_dir ] ->
      Serve_mix.daemon_main ~socket ~store_dir ~trace:None;
      exit 0
    | [ "serve-daemon"; socket; store_dir; trace ] ->
      Serve_mix.daemon_main ~socket ~store_dir ~trace:(Some trace);
      exit 0
    | [ "kernel" ] ->
      Measure.kernel_main ();
      exit 0
    | (("run" | "check" | "setup-probe") as c) :: rest -> (c, rest)
    | rest -> ("run", rest)
  in
  let workload = ref None and seed = ref 1 and seconds = ref 25.0 and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      if Workloads.find w = None then usage ();
      workload := Some w;
      parse rest
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with Some n -> seed := n | None -> usage ());
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with Some s when s > 0.0 -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: t :: rest ->
      (match t with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
      parse rest
    | _ -> usage ()
  in
  parse flags;
  match (command, !workload) with
  | "check", _ ->
    (match check_problems () with
    | [] -> print_endline "ucpbench check: ok"
    | ps ->
      List.iter (fun p -> prerr_endline ("ucpbench check: " ^ p)) ps;
      exit 1)
  | "setup-probe", Some w -> (
    match (Option.get (Workloads.find w)).kind with
    | Workloads.Batch b -> ignore (batch_setup w b ~seed:!seed)
    | Workloads.Serve -> usage ())
  | "run", Some w ->
    (match check_problems () with
    | [] -> ()
    | ps ->
      List.iter (fun p -> prerr_endline ("ucpbench: " ^ p)) ps;
      exit 1);
    let wl = Option.get (Workloads.find w) in
    let traced = !trace and seed = !seed and seconds = !seconds in
    let r =
      match wl.kind with
      | Workloads.Batch b -> run_batch w b ~seed ~seconds ~traced
      | Workloads.Serve -> Serve_mix.run ~name:w ~seed ~seconds ~traced
    in
    emit w ~traced r;
    if r.failures <> [] then exit 1
  | "run", None ->
    (* every workload in its own process, one after another *)
    let ok =
      List.fold_left
        (fun ok (wl : Workloads.t) ->
          let pid =
            Unix.create_process Sys.executable_name
              [|
                Sys.executable_name; "run"; "--workload"; wl.name; "--seed"; string_of_int !seed;
                "--seconds"; Printf.sprintf "%g" !seconds; "--trace"; (if !trace then "1" else "0");
              |]
              Unix.stdin Unix.stdout Unix.stderr
          in
          match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> ok | _ -> false)
        true Workloads.all
    in
    if not ok then exit 1
  | _ -> usage ()
