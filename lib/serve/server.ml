module Config = Ucp_cache.Config
module Tech = Ucp_energy.Tech
module Suite = Ucp_workloads.Suite
module Experiments = Ucp_core.Experiments
module Checkpoint = Ucp_core.Checkpoint
module Pipeline = Ucp_core.Pipeline
module Report = Ucp_core.Report
module Parallel = Ucp_core.Parallel
module Fault = Ucp_core.Fault
module Deadline = Ucp_util.Deadline
module Clock = Ucp_util.Clock
module Lru = Ucp_util.Lru
module Ctx = Ucp_obs.Ctx
module Trace = Ucp_obs.Trace
module Metrics = Ucp_obs.Metrics
module P = Protocol

type config = {
  socket : string;
  store_dir : string;
  jobs : int;
  cache_capacity : int;
  queue_limit : int;
  timeout : float option;
  refine : Ucp_refine.Mode.t;
  access_log : string option;
  slow_log : string option;
  slow_threshold_s : float;
  trace : string option;
  trace_seed : int;
}

let default_config ~socket ~store_dir =
  {
    socket;
    store_dir;
    jobs = 2;
    cache_capacity = 64;
    queue_limit = 32;
    timeout = None;
    refine = Ucp_refine.Mode.Nc;
    access_log = None;
    slow_log = None;
    slow_threshold_s = 1.0;
    trace = None;
    trace_seed = 0;
  }

(* ------------------------------------------------------------------ *)
(* service-level instruments *)

(* sub-ms to 10 s: cache hits land in the first buckets, cold analyses
   in the last few; the +inf bucket catches fault-stalled requests *)
let latency_buckets =
  [| 0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0 |]

(* the request tiers; also the exposition label values *)
let tiers = [ "cache"; "store"; "cold"; "shed" ]

let serve_latency tier =
  Metrics.histogram
    (Printf.sprintf "serve_latency_s{tier=%S}" tier)
    ~buckets:latency_buckets

let store_read_buckets =
  [| 0.0001; 0.00025; 0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1 |]

(* ------------------------------------------------------------------ *)
(* server state *)

type stats = {
  smutex : Mutex.t;
  mutable inflight : int;  (* cold computations queued or running *)
}

type t = {
  cfg : config;
  stop : bool Atomic.t;
  pool : Parallel.pool;
  store : Store.t;
  (* case id -> rendered record_json, the final bytes a hit answers
     with, so cache hits are trivially byte-stable *)
  cache : (string, string) Lru.t;
  cmutex : Mutex.t;
  models : (Config.t * Tech.t, Ucp_energy.Cacti.t) Hashtbl.t;
  mmutex : Mutex.t;
  stats : stats;
  alog : Ucp_obs.Access_log.t option;  (* one line per request *)
  slog : Ucp_obs.Access_log.t option;  (* requests above the slow threshold *)
  (* requests that arrive without a client trace id get one derived
     from (trace_seed, arrival index) — deterministic per daemon run *)
  req_index : int Atomic.t;
}

let tally t f =
  Mutex.lock t.stats.smutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.stats.smutex) (fun () -> f t.stats)

let cache_find t id =
  Mutex.lock t.cmutex;
  let v = Lru.find t.cache id in
  Mutex.unlock t.cmutex;
  v

let cache_add t id v =
  Mutex.lock t.cmutex;
  Lru.add t.cache id v;
  Mutex.unlock t.cmutex

let model t (c : Experiments.case) =
  Mutex.lock t.mmutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mmutex)
    (fun () ->
      let key = (c.Experiments.case_config, c.Experiments.case_tech) in
      match Hashtbl.find_opt t.models key with
      | Some m -> m
      | None ->
        let m =
          Pipeline.model c.Experiments.case_config c.Experiments.case_tech
        in
        Hashtbl.add t.models key m;
        m)

(* ------------------------------------------------------------------ *)
(* case-id resolution *)

(* generated programs ("gen-<class>-<seed>") resolve by regeneration:
   the name is the reproducer, so the daemon can serve fuzz cases no
   suite ships *)
let resolve_program pname =
  match Suite.find pname with
  | program -> Ok program
  | exception Not_found -> (
    match Ucp_workloads.Generate.parse_name pname with
    | Some (seed, cls) -> Ok (Ucp_workloads.Generate.program ~seed ~cls)
    | None -> Error (Printf.sprintf "unknown program %S (try `ucp list')" pname))

let resolve_case id =
  match String.split_on_char ':' id with
  | [ pname; cid; tlabel; pol ] -> (
    match resolve_program pname with
    | Error msg -> Error msg
    | Ok program -> (
      match List.assoc_opt cid Config.paper_configs with
      | None -> Error (Printf.sprintf "unknown configuration %S (k1..k36)" cid)
      | Some config -> (
        let tech =
          match tlabel with
          | "45nm" -> Some Tech.nm45
          | "32nm" -> Some Tech.nm32
          | _ -> None
        in
        match tech with
        | None -> Error (Printf.sprintf "unknown technology %S (45nm | 32nm)" tlabel)
        | Some tech -> (
          match Ucp_policy.of_string pol with
          | Error msg -> Error msg
          | Ok policy ->
            Ok
              {
                Experiments.case_program_name = pname;
                case_program = program;
                case_config_id = cid;
                case_config = config;
                case_tech = tech;
                case_policy = policy;
              }))))
  | _ ->
    Error
      (Printf.sprintf "malformed case id %S: expected <program>:<config>:<tech>:<policy>"
         id)

(* ------------------------------------------------------------------ *)
(* cold evaluation on the worker pool *)

(* one slot per in-flight request: the connection thread blocks on it,
   the pool task (or its death handler) fills it exactly once *)
type slot = {
  sm : Mutex.t;
  sc : Condition.t;
  mutable sres : P.response option;
}

let fill slot r =
  Mutex.lock slot.sm;
  if slot.sres = None then begin
    slot.sres <- Some r;
    Condition.broadcast slot.sc
  end;
  Mutex.unlock slot.sm

let await slot =
  Mutex.lock slot.sm;
  while slot.sres = None do
    Condition.wait slot.sc slot.sm
  done;
  let r = Option.get slot.sres in
  Mutex.unlock slot.sm;
  r

let compute t ~trace id (c : Experiments.case) key =
  let slot = { sm = Mutex.create (); sc = Condition.create (); sres = None } in
  let model = model t c in
  (* [Parallel.submit] captures the connection thread's ambient trace
     context, so the spans the pipeline opens on the pool domain carry
     this request's trace id *)
  Parallel.submit t.pool (fun () ->
      (* if the task dies on an exception that escapes isolation, the
         default below is what keeps the request from hanging: the
         client gets a retryable error while the pool replaces the dead
         domain *)
      let result =
        ref
          (P.Failed
             {
               retryable = true;
               message = "worker domain died mid-request; retry";
               trace_id = trace;
             })
      in
      Fun.protect
        ~finally:(fun () ->
          (* release the admission slot before waking the client: a
             sequential client must observe the queue depth its own
             requests imply, not a race with this task's teardown *)
          tally t (fun s -> s.inflight <- s.inflight - 1);
          fill slot !result)
        (fun () ->
          let resp =
            Trace.with_span ~name:"compute"
              ~args:[ ("id", Trace.Str id) ]
              (fun () ->
                match
                  let deadline = Option.map Deadline.after t.cfg.timeout in
                  (* fault hooks run on the pool domain, so a kill-worker
                     hook kills a worker, not the connection thread *)
                  Fault.apply_pre ?deadline id;
                  let r =
                    Experiments.run_case ?deadline ~refine:t.cfg.refine
                      ~corrupt_refine:(Fault.corrupt_refine id) ~model c
                  in
                  let r = Fault.corrupt id r in
                  match Experiments.check_invariants r with
                  | Error msg -> Error (Printf.sprintf "invariant violation: %s" msg)
                  | Ok () -> Ok r
                with
                | Ok r ->
                  let json = Report.record_json r in
                  Store.put t.store ~id ~key (Checkpoint.record_line ~id r);
                  cache_add t id json;
                  Metrics.incr (Metrics.counter "serve_computed_total");
                  P.Record { id; source = P.Computed; json; trace_id = trace }
                | Error msg ->
                  P.Failed { retryable = false; message = msg; trace_id = trace }
                | exception Deadline.Deadline_exceeded ->
                  P.Failed
                    {
                      retryable = false;
                      message = "case deadline exceeded";
                      trace_id = trace;
                    }
                | exception (Fault.Killed_worker _ as e) -> raise e
                | exception exn ->
                  P.Failed
                    {
                      retryable = false;
                      message = Printexc.to_string exn;
                      trace_id = trace;
                    })
          in
          result := resp));
  await slot

(* ------------------------------------------------------------------ *)
(* request handling (runs on the per-connection thread) *)

(* the answer plus which tier settled it: cache | store | cold | shed,
   or "reject" for requests that never reached a tier (bad id, deadline
   during an injected stall) *)
let answer_case t ~trace id =
  Metrics.incr (Metrics.counter "serve_requests_total");
  match resolve_case id with
  | Error msg -> (P.Failed { retryable = false; message = msg; trace_id = trace }, "reject")
  | Ok c -> (
    match
      let deadline = Option.map Deadline.after t.cfg.timeout in
      Option.iter (Fault.busy_wait ?deadline) (Fault.stall_request id)
    with
    | exception Deadline.Deadline_exceeded ->
      ( P.Failed { retryable = false; message = "case deadline exceeded"; trace_id = trace },
        "reject" )
    | () -> (
      match Trace.with_span ~name:"cache_lookup" (fun () -> cache_find t id) with
      | Some json ->
        Metrics.incr (Metrics.counter "serve_cache_hits_total");
        (P.Record { id; source = P.Memory; json; trace_id = trace }, "cache")
      | None -> (
        Metrics.incr (Metrics.counter "serve_cache_misses_total");
        let key = Store.key ~refine:t.cfg.refine c in
        let from_store =
          Trace.with_span ~name:"store_lookup" (fun () ->
              let t0 = Clock.now_s () in
              let found = Store.find t.store ~key in
              Metrics.observe
                (Metrics.histogram "store_read_s" ~buckets:store_read_buckets)
                (Clock.now_s () -. t0);
              match found with
              | None -> None
              | Some line -> (
                match Checkpoint.parse_line line with
                | Some (id', r) when id' = id -> Some (Report.record_json r)
                | Some _ | None ->
                  (* checksum-clean but semantically wrong: same self-heal
                     path as bit rot *)
                  Store.quarantine t.store ~key "unparseable entry";
                  None))
        in
        match from_store with
        | Some json ->
          Metrics.incr (Metrics.counter "serve_store_hits_total");
          cache_add t id json;
          (P.Record { id; source = P.Store; json; trace_id = trace }, "store")
        | None ->
          (* cold: bounded admission — cache/store answers above never
             shed, so an overloaded daemon degrades to cache-only *)
          let admitted =
            tally t (fun s ->
                if s.inflight >= t.cfg.queue_limit then false
                else begin
                  s.inflight <- s.inflight + 1;
                  true
                end)
          in
          if not admitted then begin
            Metrics.incr (Metrics.counter "serve_shed_total");
            ( P.Retry
                {
                  after_s = 0.25;
                  reason =
                    Printf.sprintf "admission queue full (%d in flight)"
                      t.cfg.queue_limit;
                  trace_id = trace;
                },
              "shed" )
          end
          else (compute t ~trace id c key, "cold"))))

let health t =
  let queue_depth = tally t (fun s -> s.inflight) in
  (* the full registry rides along: integer counters in the original
     [stats] payload, gauges/fcounters and histogram count+sum in the
     additive fields (full bucket vectors go through [Metrics]) *)
  let dump = Ucp_obs.Metrics.dump () in
  let counters =
    List.filter_map
      (function
        | name, Ucp_obs.Metrics.Counter n -> Some (name, n)
        | _ -> None)
      dump
  in
  let gauges =
    List.filter_map
      (function
        | name, Ucp_obs.Metrics.Gauge x | name, Ucp_obs.Metrics.Fcounter x ->
          Some (name, x)
        | _ -> None)
      dump
  in
  let hists =
    List.filter_map
      (function
        | name, Ucp_obs.Metrics.Histogram { sum; count; _ } ->
          Some (name, { P.hs_count = count; hs_sum = sum })
        | _ -> None)
      dump
  in
  P.Health_stats
    {
      counters =
        [
          ("queue_depth", queue_depth);
          ("worker_restarts", Parallel.restarts t.pool);
          ("store_quarantined", Store.quarantined t.store);
          ("store_corruptions_injected", Store.corruptions_injected t.store);
          ("cache_evictions",
           (Mutex.lock t.cmutex;
            let e = Lru.evictions t.cache in
            Mutex.unlock t.cmutex;
            e));
        ]
        @ counters;
      gauges;
      hists;
    }

(* ------------------------------------------------------------------ *)
(* per-request accounting: latency histogram, access log, slow log *)

let log_request t ~trace ~id ~tier ~outcome ~latency ~queue_depth =
  if List.mem tier tiers then Metrics.observe (serve_latency tier) latency;
  let fields threshold =
    (* field order is the byte order on disk; [ts] and [latency_s] are
       the only non-deterministic fields, and they sit mid-object so
       the CI can sed-strip them and byte-compare the rest *)
    [
      ("ts", Ucp_util.Json.Num (Unix.gettimeofday ()));
      ("trace_id", Ucp_util.Json.Str trace);
      ("id", Ucp_util.Json.Str id);
      ("tier", Ucp_util.Json.Str tier);
      ("outcome", Ucp_util.Json.Str outcome);
      ("latency_s", Ucp_util.Json.Num latency);
      ("queue_depth", Ucp_util.Json.Num (float_of_int queue_depth));
    ]
    @
    match threshold with
    | None -> []
    | Some th -> [ ("threshold_s", Ucp_util.Json.Num th) ]
  in
  Option.iter (fun l -> Ucp_obs.Access_log.write l (fields None)) t.alog;
  if latency >= t.cfg.slow_threshold_s then begin
    Metrics.incr (Metrics.counter "serve_slow_requests_total");
    Ucp_obs.Log.warn "[serve] slow request trace=%s id=%s tier=%s %.3fs" trace id
      tier latency;
    Option.iter
      (fun l -> Ucp_obs.Access_log.write l (fields (Some t.cfg.slow_threshold_s)))
      t.slog
  end

let outcome_of_response = function
  | P.Record _ -> "ok"
  | P.Retry _ -> "retry"
  | P.Failed { retryable = true; _ } -> "retryable_error"
  | P.Failed { retryable = false; _ } -> "error"
  | P.Health_stats _ | P.Metrics_text _ | P.Bye -> "ok"

let serve_case t ~trace_id id =
  (* adopt the client's trace id, or derive a deterministic one from
     the arrival index so untraced clients still correlate *)
  let ctx =
    match Option.bind trace_id Ctx.of_hex with
    | Some tid -> Ctx.root tid
    | None ->
      Ctx.derive ~seed:t.cfg.trace_seed
        ~index:(Atomic.fetch_and_add t.req_index 1)
  in
  let trace = Ctx.trace_hex ctx in
  let queue_depth = tally t (fun s -> s.inflight) in
  Metrics.set (Metrics.gauge "serve_queue_depth") (float_of_int queue_depth);
  Ctx.with_ctx ctx (fun () ->
      Trace.with_span ~name:"request"
        ~args:[ ("id", Trace.Str id) ]
        (fun () ->
          let t0 = Clock.now_s () in
          let resp, tier = answer_case t ~trace:(Some trace) id in
          let latency = Clock.now_s () -. t0 in
          Trace.set_arg "tier" (Trace.Str tier);
          Ucp_obs.Log.info "[serve] trace=%s id=%s tier=%s outcome=%s %.6fs" trace
            id tier (outcome_of_response resp) latency;
          log_request t ~trace ~id ~tier ~outcome:(outcome_of_response resp)
            ~latency ~queue_depth;
          resp))

(* ------------------------------------------------------------------ *)
(* connection plumbing *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let send fd resp = write_all fd (P.frame (P.response_to_string resp))

(* returns [false] when the connection should close *)
let handle_frame t fd payload =
  match P.request_of_string payload with
  | Error msg ->
    send fd (P.Failed { retryable = false; message = msg; trace_id = None });
    true
  | Ok (P.Case { id; trace_id }) ->
    send fd (serve_case t ~trace_id id);
    true
  | Ok P.Health ->
    send fd (health t);
    true
  | Ok P.Metrics ->
    send fd (P.Metrics_text (Ucp_obs.Expo.render (Ucp_obs.Metrics.dump ())));
    true
  | Ok P.Shutdown ->
    send fd P.Bye;
    Atomic.set t.stop true;
    false

let handle_conn t fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 65536 in
  let rec loop () =
    match P.unframe (Buffer.contents buf) with
    | P.Frame (payload, rest) ->
      Buffer.clear buf;
      Buffer.add_string buf rest;
      if handle_frame t fd payload then loop ()
    | P.Malformed msg ->
      (* never try to resynchronize a broken stream: one structured
         error, then hang up *)
      send fd
        (P.Failed
           { retryable = false; message = "protocol error: " ^ msg; trace_id = None })
    | P.Incomplete -> (
      (* poll so an idle connection notices a draining daemon *)
      match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ ->
        if Atomic.get t.stop && Buffer.length buf = 0 then () else loop ()
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()  (* peer closed *)
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try loop ()
      with
      | Unix.Unix_error _ | Sys_error _ ->
        (* a vanished client is the client's problem, not the daemon's *)
        ())

(* ------------------------------------------------------------------ *)
(* lifecycle *)

let install_signals t =
  let quit _ = Atomic.set t.stop true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
  (* a client that disappears mid-answer must not kill the daemon *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let run ?(signals = true) cfg =
  if cfg.jobs < 1 then invalid_arg "Server.run: jobs must be positive";
  if cfg.queue_limit < 1 then invalid_arg "Server.run: queue limit must be positive";
  if not (Float.is_finite cfg.slow_threshold_s) || cfg.slow_threshold_s < 0.0 then
    invalid_arg "Server.run: slow threshold must be a non-negative number";
  (* the health query reads registry counters, so the daemon always
     meters itself *)
  Ucp_obs.Metrics.enable ();
  (* pre-register the per-tier family so the exposition shows all four
     tiers from the first scrape, observed or not *)
  List.iter (fun tier -> ignore (serve_latency tier)) tiers;
  if cfg.trace <> None then Trace.start ();
  let store = Store.open_ ~dir:cfg.store_dir in
  let t =
    {
      cfg;
      stop = Atomic.make false;
      pool = Parallel.create ~respawn:true ~jobs:cfg.jobs ();
      store;
      cache = Lru.create ~capacity:cfg.cache_capacity;
      cmutex = Mutex.create ();
      models = Hashtbl.create 16;
      mmutex = Mutex.create ();
      stats = { smutex = Mutex.create (); inflight = 0 };
      alog = Option.map Ucp_obs.Access_log.open_ cfg.access_log;
      slog = Option.map Ucp_obs.Access_log.open_ cfg.slow_log;
      req_index = Atomic.make 0;
    }
  in
  if signals then install_signals t;
  (* crash-only restart: a previous kill -9 leaves the socket file
     behind; it is dead weight, not state — remove and rebind *)
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
     Unix.listen listen_fd 16
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  Ucp_obs.Log.out
    (Printf.sprintf "[serve] listening on %s (store %s, %d workers, cache %d)"
       cfg.socket cfg.store_dir cfg.jobs cfg.cache_capacity);
  let conns = ref [] in
  let cmutex = Mutex.create () in
  let accept_loop () =
    while not (Atomic.get t.stop) do
      match Unix.select [ listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept listen_fd with
        | fd, _ ->
          let th = Thread.create (fun () -> handle_conn t fd) () in
          Mutex.lock cmutex;
          conns := th :: !conns;
          Mutex.unlock cmutex
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
      (* drain: every accepted connection finishes its current request
         (in-flight computations included — their connection threads
         block on the pool), then the pool itself is drained *)
      let rec join () =
        Mutex.lock cmutex;
        let ths = !conns in
        conns := [];
        Mutex.unlock cmutex;
        if ths <> [] then begin
          List.iter Thread.join ths;
          join ()
        end
      in
      join ();
      Parallel.shutdown t.pool;
      Option.iter Ucp_obs.Access_log.close t.alog;
      Option.iter Ucp_obs.Access_log.close t.slog;
      (match cfg.trace with
      | Some path ->
        Trace.stop ();
        Checkpoint.write_atomic ~path (Trace.to_string ());
        Ucp_obs.Log.out
          (Printf.sprintf "[serve] trace written to %s (%d spans dropped)" path
             (Trace.dropped ()))
      | None -> ());
      Ucp_obs.Log.out "[serve] drained, shut down")
    accept_loop
