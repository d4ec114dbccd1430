(* The campaign driver: plan, fan out, shrink, deposit, summarize.

   A campaign is a pure function of its configuration: the plan (which
   seeds, which size classes, which use-case axes, which oracles per
   case) is drawn up front from one SplitMix64 stream, the oracles
   themselves are deterministic, and per-case JSONL lines carry no
   wall-clock data — so re-running the same seed is record-for-record
   identical, which is what CI diffs.  Only the summary line carries
   timings and the metrics snapshot.

   Cases run on the fault-isolated {!Parallel.try_map} pool with a
   per-case deadline; findings are deduplicated by signature and shrunk
   sequentially in the parent (shrinking re-runs the failing oracle, so
   it must not race the pool), then deposited in the corpus.

   Chaos mode appends injected-fault legs: corrupt-cert and
   corrupt-refine through the pipeline's own hooks (the audit must
   catch them — the catch is shrunk and deposited like a finding), and
   kill-worker / corrupt-store / stall-request through {!Fault} against
   a live in-process daemon, whose answers must stay byte-identical to
   batch records throughout. *)

module Dsl = Ucp_workloads.Dsl
module Generate = Ucp_workloads.Generate
module Config = Ucp_cache.Config
module Tech = Ucp_energy.Tech
module Rng = Ucp_util.Rng
module Json = Ucp_util.Json
module Deadline = Ucp_util.Deadline
module Clock = Ucp_util.Clock
module Experiments = Ucp_core.Experiments
module Parallel = Ucp_core.Parallel
module Outcome = Ucp_core.Outcome
module Fault = Ucp_core.Fault
module Mode = Ucp_refine.Mode
module Metrics = Ucp_obs.Metrics
module Report = Ucp_core.Report

(* instruments ride the PR-5 registry into the summary line *)
let m_cases = Metrics.counter "fuzz_cases_total"
let m_findings = Metrics.counter "fuzz_findings_total"
let m_caught = Metrics.counter "fuzz_caught_total"
let m_timeouts = Metrics.counter "fuzz_timeouts_total"
let m_shrink_steps = Metrics.counter "fuzz_shrink_steps_total"
let m_budget_exhausted = Metrics.counter "fuzz_budget_exhausted_total"

type config = {
  c_seed : int;
  c_count : int;
  c_classes : string list;
  c_policies : Ucp_policy.id list;
  c_configs : (string * Config.t) list;
  c_techs : Tech.t list;
  c_refine : Mode.t;
  c_refine_full_every : int;
  c_jobs : int option;
  c_timeout : float option;
  c_corpus : string option;
  c_chaos : int;
  c_serve : string option;
}

let default =
  {
    c_seed = 1;
    c_count = 200;
    c_classes = List.map fst Generate.classes;
    c_policies = Ucp_policy.all;
    c_configs = Experiments.quick_configs;
    c_techs = [ Tech.nm45 ];
    c_refine = Mode.Nc;
    c_refine_full_every = 4;
    c_jobs = None;
    c_timeout = Some 60.;
    c_corpus = None;
    c_chaos = 0;
    c_serve = None;
  }

(* ------------------------------------------------------------------ *)
(* planning *)

type planned = {
  p_seed : int;
  p_cls : string;
  p_target : Oracle.target;
  p_refine_full : bool;
}

let pow2 n = n > 0 && n land (n - 1) = 0

let pick rng l =
  match l with
  | [] -> invalid_arg "Campaign.pick: empty axis"
  | l -> List.nth l (Rng.int rng (List.length l))

let plan cfg =
  let rng = Rng.create cfg.c_seed in
  Array.init cfg.c_count (fun _ ->
      let p_seed = Rng.int rng 1_000_000 in
      let p_cls = pick rng cfg.c_classes in
      let config_id, config = pick rng cfg.c_configs in
      let policy = pick rng cfg.c_policies in
      (* PLRU rejects non-power-of-two associativity; redraws would
         shift the stream, so degrade deterministically instead *)
      let policy =
        if policy = Ucp_policy.Plru && not (pow2 config.Config.assoc) then
          Ucp_policy.Lru
        else policy
      in
      let tech = pick rng cfg.c_techs in
      let p_refine_full =
        cfg.c_refine_full_every > 0 && Rng.int rng cfg.c_refine_full_every = 0
      in
      {
        p_seed;
        p_cls;
        p_target =
          Oracle.of_gen ~seed:p_seed ~cls:p_cls ~policy ~config_id ~config ~tech;
        p_refine_full;
      })

(* ------------------------------------------------------------------ *)
(* one case *)

type case_result = {
  r_verdicts : (string * Oracle.verdict) list;
  r_budget_exhausted : int;
}

let run_case cfg p =
  let deadline = Option.map Deadline.after cfg.c_timeout in
  let v_class = Oracle.classification ?deadline p.p_target in
  let v_audit = Oracle.endtoend ?deadline ~refine:cfg.c_refine p.p_target in
  let verdicts = [ ("classification", v_class); ("audit", v_audit) ] in
  if p.p_refine_full then begin
    let v_full, exhausted = Oracle.refine_full ?deadline p.p_target in
    {
      r_verdicts = verdicts @ [ ("refine-full", v_full) ];
      r_budget_exhausted = exhausted;
    }
  end
  else { r_verdicts = verdicts; r_budget_exhausted = 0 }

(* ------------------------------------------------------------------ *)
(* shrinking *)

let rerun_oracle ?deadline ~oracle ~fault t =
  match oracle with
  | "classification" -> Oracle.classification ?deadline t
  | "refine-full" -> fst (Oracle.refine_full ?deadline t)
  | _ -> Oracle.endtoend ?deadline ?fault t

(* the predicate under which a candidate still reproduces: the same
   oracle yields the same signature (Finding on clean runs, Caught on
   fault runs) *)
let still_fails ?deadline ~fault (t : Oracle.target) (f : Oracle.finding) cand =
  let t' = Oracle.with_prog t cand in
  match rerun_oracle ?deadline ~oracle:f.Oracle.f_oracle ~fault t' with
  | Oracle.Finding f' when fault = None ->
    f'.Oracle.f_signature = f.Oracle.f_signature
  | Oracle.Caught f' when fault <> None ->
    f'.Oracle.f_signature = f.Oracle.f_signature
  | _ -> false

let shrink_finding ?(shrink_budget = 60.) ~fault t f =
  let deadline = Deadline.after shrink_budget in
  let case_deadline = Deadline.after 10. in
  Shrink.run ~deadline
    ~still_fails:(fun cand ->
      try still_fails ~deadline:case_deadline ~fault t f cand
      with Deadline.Deadline_exceeded ->
        Deadline.check (Some deadline);
        false)
    (Oracle.prog t)

(* ------------------------------------------------------------------ *)
(* JSONL *)

let verdict_label = function
  | Oracle.Pass -> "pass"
  | Oracle.Finding _ -> "finding"
  | Oracle.Caught _ -> "caught"

let case_line p (outcome : case_result Outcome.t) =
  let base =
    [
      ("fuzz_case", Json.Str (Oracle.case_id p.p_target));
      ("gen_seed", Json.Num (float_of_int p.p_seed));
      ("gen_shape", Json.Str p.p_cls);
    ]
  in
  let rest =
    match outcome with
    | Outcome.Ok r ->
      [
        ( "verdicts",
          Json.Obj
            (List.map (fun (o, v) -> (o, Json.Str (verdict_label v))) r.r_verdicts)
        );
      ]
      @
      if r.r_budget_exhausted > 0 then
        [ ("budget_exhausted", Json.Num (float_of_int r.r_budget_exhausted)) ]
      else []
    | o -> [ ("outcome", Json.Str (Outcome.label o)) ]
  in
  Json.to_string (Json.Obj (base @ rest))

let finding_line ?corpus_path ~fault ~shrunk ~shrink_steps p (f : Oracle.finding) =
  let body, procs = shrunk in
  Json.to_string
    (Json.Obj
       ([
          ("fuzz_finding", Json.Str f.Oracle.f_signature);
          ("oracle", Json.Str f.Oracle.f_oracle);
          ("detail", Json.Str f.Oracle.f_detail);
          ("fuzz_case", Json.Str (Oracle.case_id p.p_target));
          ("gen_seed", Json.Num (float_of_int p.p_seed));
          ("gen_shape", Json.Str p.p_cls);
          ( "fault",
            match fault with
            | None -> Json.Null
            | Some ft -> Json.Str (Oracle.fault_to_string ft) );
          ("shrunk_dsl", Json.Str (Dsl.to_string ~procs body));
          ("shrink_steps", Json.Num (float_of_int shrink_steps));
          ("shrunk_size", Json.Num (float_of_int (Shrink.size shrunk)));
        ]
       @
       match corpus_path with
       | None -> []
       | Some path -> [ ("corpus", Json.Str path) ]))

let metrics_json () =
  Json.Obj
    (List.filter_map
       (fun (name, v) ->
         match v with
         | Metrics.Counter n -> Some (name, Json.Num (float_of_int n))
         | Metrics.Fcounter f | Metrics.Gauge f -> Some (name, Json.Num f)
         | Metrics.Histogram _ -> None)
       (Metrics.dump ()))

(* ------------------------------------------------------------------ *)
(* the batch phase *)

type summary = {
  s_cases : int;
  s_pass : int;
  s_findings : int;  (** soundness findings (post-dedup occurrences count too) *)
  s_distinct : int;  (** deduplicated signatures *)
  s_caught : int;  (** injected faults detected, chaos legs included *)
  s_escaped : int;  (** injected faults NOT detected — always a failure *)
  s_timeouts : int;
  s_failed : int;
  s_budget_exhausted : int;
  s_corpus : string list;  (** corpus paths deposited this run *)
  s_chaos_ok : int;
  s_chaos_total : int;
}

let deposit cfg ~fault ~shrunk ~shrink_steps p (f : Oracle.finding) =
  match cfg.c_corpus with
  | None -> None
  | Some dir ->
    let entry =
      Corpus.of_finding ~seed:p.p_seed ~cls:p.p_cls ~fault ~shrunk ~shrink_steps
        p.p_target f
    in
    Some (Corpus.save ~dir entry)

(* shrink + deposit + emit one deduplicated finding *)
let process_finding cfg ~emit ~fault p f =
  let shrunk, shrink_steps = shrink_finding ~fault p.p_target f in
  Metrics.add m_shrink_steps shrink_steps;
  let corpus_path = deposit cfg ~fault ~shrunk ~shrink_steps p f in
  emit (finding_line ?corpus_path ~fault ~shrunk ~shrink_steps p f);
  corpus_path

let run_batch cfg ~emit ~progress plan =
  let outcomes =
    Parallel.try_map ?jobs:cfg.c_jobs ~progress (run_case cfg) plan
  in
  let pass = ref 0 and findings = ref 0 and caught = ref 0 in
  let timeouts = ref 0 and failed = ref 0 and exhausted = ref 0 in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let corpus_paths = ref [] in
  Array.iteri
    (fun i outcome ->
      let p = plan.(i) in
      Metrics.incr m_cases;
      emit (case_line p outcome);
      match outcome with
      | Outcome.Ok r ->
        Metrics.add m_budget_exhausted r.r_budget_exhausted;
        exhausted := !exhausted + r.r_budget_exhausted;
        let clean = ref true in
        List.iter
          (fun (_, v) ->
            match v with
            | Oracle.Pass -> ()
            | Oracle.Caught _ ->
              (* no fault is armed in the batch phase; a Caught here
                 would mean phantom detection — count it as a finding *)
              clean := false
            | Oracle.Finding f ->
              clean := false;
              incr findings;
              Metrics.incr m_findings;
              if not (Hashtbl.mem seen f.Oracle.f_signature) then begin
                Hashtbl.replace seen f.Oracle.f_signature ();
                match process_finding cfg ~emit ~fault:None p f with
                | Some path -> corpus_paths := path :: !corpus_paths
                | None -> ()
              end)
          r.r_verdicts;
        if !clean then incr pass
      | Outcome.Timed_out ->
        incr timeouts;
        Metrics.incr m_timeouts
      | Outcome.Failed _ | Outcome.Invariant_violation _ -> incr failed)
    outcomes;
  ( !pass,
    !findings,
    !caught,
    !timeouts,
    !failed,
    !exhausted,
    seen,
    corpus_paths )

(* ------------------------------------------------------------------ *)
(* chaos: injected faults that must be caught *)

(* corrupt-cert / corrupt-refine cycle through the pipeline's own
   hooks; each catch is shrunk and deposited so the corpus pins the
   defence, not just the attack *)
let run_chaos_faults cfg ~emit ~seen ~corpus_paths plan =
  let caught = ref 0 and escaped = ref 0 in
  let n = Array.length plan in
  let chaos_line p fault verdict =
    emit
      (Json.to_string
         (Json.Obj
            [
              ("fuzz_chaos", Json.Str (Oracle.fault_to_string fault));
              ("fuzz_case", Json.Str (Oracle.case_id p.p_target));
              ("gen_seed", Json.Num (float_of_int p.p_seed));
              ("gen_shape", Json.Str p.p_cls);
              ("verdict", Json.Str verdict);
            ]))
  in
  if n > 0 then
    for i = 0 to cfg.c_chaos - 1 do
      let p = plan.(i mod n) in
      let fault =
        if i mod 2 = 0 then Oracle.Corrupt_cert else Oracle.Corrupt_refine
      in
      let deadline = Option.map Deadline.after cfg.c_timeout in
      match Oracle.endtoend ?deadline ~fault ~refine:cfg.c_refine p.p_target with
      | Oracle.Caught f ->
        incr caught;
        Metrics.incr m_caught;
        chaos_line p fault ("caught:" ^ f.Oracle.f_signature);
        if not (Hashtbl.mem seen f.Oracle.f_signature) then begin
          Hashtbl.replace seen f.Oracle.f_signature ();
          match process_finding cfg ~emit ~fault:(Some fault) p f with
          | Some path -> corpus_paths := path :: !corpus_paths
          | None -> ()
        end
      | Oracle.Finding f ->
        incr escaped;
        chaos_line p fault ("escaped:" ^ f.Oracle.f_signature);
        emit
          (finding_line ~fault:(Some fault) ~shrunk:(Oracle.prog p.p_target)
             ~shrink_steps:0 p f)
      | Oracle.Pass ->
        (* the fault had nothing to corrupt on this program (see
           {!Oracle.endtoend}); not an escape *)
        chaos_line p fault "noop"
    done;
  (!caught, !escaped)

(* process-level chaos against a live daemon: the answers must stay
   byte-identical to batch records while workers are killed, store
   entries scribbled and requests stalled under the case's feet *)
let run_chaos_serve cfg ~emit ~dir plan =
  let module Server = Ucp_serve.Server in
  let module Client = Ucp_serve.Client in
  let module P = Ucp_serve.Protocol in
  let socket = Filename.concat dir "fuzz.sock" in
  let store_dir = Filename.concat dir "store" in
  (* cache_capacity 0 disables the memory tier: corrupt-store must be
     healed through the store's checksum path, not masked by the cache *)
  let scfg =
    {
      (Server.default_config ~socket ~store_dir) with
      refine = cfg.c_refine;
      cache_capacity = 0;
    }
  in
  let daemon = Thread.create (fun () -> Server.run ~signals:false scfg) () in
  let ok = ref 0 and total = ref 0 in
  let n = Array.length plan in
  let legs =
    [
      ("kill-worker", Fault.Kill_worker);
      ("corrupt-store", Fault.Corrupt_store);
      ("stall-request", Fault.Stall_request 0.2);
    ]
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Client.query ~retries:4 ~socket P.Shutdown);
      Thread.join daemon;
      Fault.clear ())
    (fun () ->
      if n > 0 then
        List.iteri
          (fun i (label, mode) ->
            let p = plan.(i mod n) in
            let id = Oracle.case_id p.p_target in
            incr total;
            Fault.set id mode;
            (* corrupt-store scribbles *after* persist: prime the store
               with a first query, then check the re-read heals *)
            let deadline = Option.map Deadline.after cfg.c_timeout in
            let verdict =
              match
                Oracle.serve_identity ?deadline ~refine:cfg.c_refine ~socket
                  p.p_target
              with
              | Oracle.Pass when mode = Fault.Corrupt_store ->
                Oracle.serve_identity ?deadline ~refine:cfg.c_refine ~socket
                  p.p_target
              | v -> v
            in
            let healthy =
              match Client.query ~retries:4 ~socket P.Health with
              | Ok (P.Health_stats health) -> (
                let stat k =
                  Option.value ~default:0 (List.assoc_opt k health.P.counters)
                in
                match mode with
                | Fault.Kill_worker -> stat "worker_restarts" >= 1
                | Fault.Corrupt_store -> stat "store_quarantined" >= 1
                | _ -> true)
              | _ -> false
            in
            let passed = verdict = Oracle.Pass && healthy in
            if passed then incr ok;
            emit
              (Json.to_string
                 (Json.Obj
                    [
                      ("fuzz_chaos", Json.Str label);
                      ("fuzz_case", Json.Str id);
                      ("gen_seed", Json.Num (float_of_int p.p_seed));
                      ("gen_shape", Json.Str p.p_cls);
                      ( "verdict",
                        Json.Str
                          (match verdict with
                          | Oracle.Pass when healthy -> "healed"
                          | Oracle.Pass -> "health-mismatch"
                          | Oracle.Finding f -> "finding:" ^ f.Oracle.f_signature
                          | Oracle.Caught f -> "caught:" ^ f.Oracle.f_signature) );
                    ])))
          legs)

(* ------------------------------------------------------------------ *)

let summary_line cfg ~wall_s s =
  Json.to_string
    (Json.Obj
       [
         ("fuzz_summary", Json.Bool true);
         ("seed", Json.Num (float_of_int cfg.c_seed));
         ("count", Json.Num (float_of_int cfg.c_count));
         ("cases", Json.Num (float_of_int s.s_cases));
         ("pass", Json.Num (float_of_int s.s_pass));
         ("findings", Json.Num (float_of_int s.s_findings));
         ("distinct", Json.Num (float_of_int s.s_distinct));
         ("caught", Json.Num (float_of_int s.s_caught));
         ("escaped", Json.Num (float_of_int s.s_escaped));
         ("timeouts", Json.Num (float_of_int s.s_timeouts));
         ("failed", Json.Num (float_of_int s.s_failed));
         ("budget_exhausted", Json.Num (float_of_int s.s_budget_exhausted));
         ("chaos_ok", Json.Num (float_of_int s.s_chaos_ok));
         ("chaos_total", Json.Num (float_of_int s.s_chaos_total));
         ("wall_s", Json.Num wall_s);
         ("metrics", metrics_json ());
       ])

let run ?(emit = fun _ -> ()) ?(progress = fun ~done_:_ ~total:_ -> ()) cfg =
  let t0 = Clock.now_s () in
  let plan = plan cfg in
  let pass, findings, caught0, timeouts, failed, exhausted, seen, corpus_paths =
    run_batch cfg ~emit ~progress plan
  in
  let caught_chaos, escaped =
    if cfg.c_chaos > 0 then run_chaos_faults cfg ~emit ~seen ~corpus_paths plan
    else (0, 0)
  in
  let chaos_ok, chaos_total =
    match cfg.c_serve with
    | Some dir ->
      let ok = ref 0 and total = ref 0 in
      let count_emit line =
        (match Json.parse line with
        | Ok j when Json.member "fuzz_chaos" j <> None ->
          incr total;
          if Json.member "verdict" j |> Fun.flip Option.bind Json.to_str
             = Some "healed"
          then incr ok
        | _ -> ());
        emit line
      in
      run_chaos_serve cfg ~emit:count_emit ~dir plan;
      (!ok, !total)
    | None -> (0, 0)
  in
  let s =
    {
      s_cases = Array.length plan;
      s_pass = pass;
      s_findings = findings + escaped;
      s_distinct = Hashtbl.length seen;
      s_caught = caught0 + caught_chaos;
      s_escaped = escaped;
      s_timeouts = timeouts;
      s_failed = failed;
      s_budget_exhausted = exhausted;
      s_corpus = List.rev !corpus_paths;
      s_chaos_ok = chaos_ok;
      s_chaos_total = chaos_total;
    }
  in
  emit (summary_line cfg ~wall_s:(Clock.now_s () -. t0) s);
  s

let clean s =
  s.s_findings = 0 && s.s_escaped = 0 && s.s_failed = 0
  && s.s_chaos_ok = s.s_chaos_total

(* ------------------------------------------------------------------ *)
(* corpus replay (the CI pin) *)

let replay_corpus ?(emit = fun _ -> ()) ~dir () =
  let paths = Corpus.list ~dir in
  let ok = ref 0 and failedl = ref [] in
  List.iter
    (fun path ->
      let result =
        match Corpus.load path with
        | Error msg -> Error msg
        | Ok e -> Corpus.replay ~deadline:(Deadline.after 120.) e
      in
      (match result with
      | Ok () -> incr ok
      | Error msg -> failedl := (path, msg) :: !failedl);
      emit
        (Json.to_string
           (Json.Obj
              [
                ("fuzz_replay", Json.Str (Filename.basename path));
                ( "result",
                  match result with
                  | Ok () -> Json.Str "ok"
                  | Error msg -> Json.Str ("error: " ^ msg) );
              ])))
    paths;
  (!ok, List.rev !failedl)
