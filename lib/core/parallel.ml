module Tech = Ucp_energy.Tech
module Deadline = Ucp_util.Deadline
module Clock = Ucp_util.Clock

(* ------------------------------------------------------------------ *)
(* fixed-size domain pool with a chunked work queue *)

(* per-worker telemetry, aggregated under [pool.mutex] when a task
   finishes (the worker holds the lock there anyway); the public
   snapshot type is {!Telemetry.worker_stat} *)
type wstat = { mutable w_busy : float; mutable w_tasks : int; mutable w_cases : int }

type pool = {
  mutex : Mutex.t;
  work : Condition.t;  (* a task was queued, or the pool closed *)
  idle : Condition.t;  (* the last pending task finished *)
  tasks : (int * (unit -> unit)) Queue.t;  (* weight (work items), task *)
  mutable pending : int;  (* queued or running tasks *)
  mutable closed : bool;
  (* first task exception plus the backtrace captured at the raise
     site, re-raised by [wait] with the original trace intact *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable workers : unit Domain.t list;
  stats : wstat array;
  (* worker-death accounting: an exception that escapes task isolation
     (e.g. a [Fault.Killed_worker], or a fatal error in the pool
     machinery itself) terminates its domain; the pool either respawns
     a replacement ([respawn]) or fails [wait] with a structured
     {!Worker_died} instead of hanging forever *)
  respawn : bool;
  mutable alive : int;
  mutable restarts : int;
}

exception Worker_died of string

let default_jobs () =
  match Sys.getenv_opt "UCP_JOBS" with
  | None | Some "" -> Domain.recommended_domain_count ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None ->
      invalid_arg (Printf.sprintf "UCP_JOBS=%s: expected a positive integer" s))

let rec worker pool w =
  Mutex.lock pool.mutex;
  let rec next () =
    if not (Queue.is_empty pool.tasks) then Some (Queue.pop pool.tasks)
    else if pool.closed then None
    else begin
      Condition.wait pool.work pool.mutex;
      next ()
    end
  in
  match next () with
  | None -> Mutex.unlock pool.mutex
  | Some (weight, task) ->
    Mutex.unlock pool.mutex;
    let t0 = Clock.now_s () in
    let outcome =
      match task () with
      | () -> None
      (* a kill escapes task isolation by design: the domain dies and
         the pool's death handler takes over the bookkeeping *)
      | exception (Fault.Killed_worker _ as e) -> raise e
      | exception exn -> Some (exn, Printexc.get_raw_backtrace ())
    in
    let busy = Clock.now_s () -. t0 in
    Mutex.lock pool.mutex;
    let st = pool.stats.(w) in
    st.w_busy <- st.w_busy +. busy;
    st.w_tasks <- st.w_tasks + 1;
    st.w_cases <- st.w_cases + weight;
    (match outcome with
    | Some _ when pool.failure = None -> pool.failure <- outcome
    | Some _ | None -> ());
    pool.pending <- pool.pending - 1;
    if pool.pending = 0 then Condition.broadcast pool.idle;
    Mutex.unlock pool.mutex;
    worker pool w

(* runs on the worker domain; any exception reaching it means the
   worker died outside task isolation with its task still counted in
   [pending] — account the loss, wake the waiters, and either spawn a
   replacement domain or poison the pool with a structured error *)
let rec guarded_worker pool w =
  try worker pool w
  with exn ->
    let bt = Printexc.get_raw_backtrace () in
    let died =
      Worker_died
        (Printf.sprintf "worker %d died outside task isolation: %s" w
           (Printexc.to_string exn))
    in
    Mutex.lock pool.mutex;
    pool.alive <- pool.alive - 1;
    (* the in-flight task will never finish; without this decrement
       [wait] would block forever on a count that cannot drain *)
    pool.pending <- pool.pending - 1;
    if pool.respawn && not pool.closed then begin
      pool.restarts <- pool.restarts + 1;
      (* surfaced by the serve daemon's health query *)
      Ucp_obs.Metrics.incr (Ucp_obs.Metrics.counter "worker_restarts_total");
      pool.alive <- pool.alive + 1;
      pool.workers <-
        Domain.spawn (fun () -> guarded_worker pool w) :: pool.workers
    end
    else if pool.failure = None then pool.failure <- Some (died, bt);
    Condition.broadcast pool.idle;
    Mutex.unlock pool.mutex;
    Ucp_obs.Log.warn "%s%s" (Printexc.to_string exn)
      (if pool.respawn then " — worker domain replaced" else "")

let create ?(respawn = false) ~jobs () =
  if jobs < 1 then invalid_arg "Parallel.create: jobs must be positive";
  let pool =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      tasks = Queue.create ();
      pending = 0;
      closed = false;
      failure = None;
      workers = [];
      stats = Array.init jobs (fun _ -> { w_busy = 0.0; w_tasks = 0; w_cases = 0 });
      respawn;
      alive = jobs;
      restarts = 0;
    }
  in
  pool.workers <- List.init jobs (fun w -> Domain.spawn (fun () -> guarded_worker pool w));
  pool

let restarts pool =
  Mutex.lock pool.mutex;
  let r = pool.restarts in
  Mutex.unlock pool.mutex;
  r

let submit ?(weight = 1) pool task =
  (* capture the submitter's ambient trace context so spans the task
     opens on a worker domain carry the originating request's trace id
     (the serve daemon's cold-compute attribution) *)
  let task =
    match Ucp_obs.Ctx.current () with
    | None -> task
    | Some c -> fun () -> Ucp_obs.Ctx.with_ctx c task
  in
  Mutex.lock pool.mutex;
  if pool.closed then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Parallel.submit: pool is shut down"
  end;
  Queue.push (weight, task) pool.tasks;
  pool.pending <- pool.pending + 1;
  Condition.signal pool.work;
  Mutex.unlock pool.mutex

(* snapshot of every worker's telemetry; stats are committed when a
   task finishes, so call after [wait] for complete numbers *)
let worker_stats pool =
  Mutex.lock pool.mutex;
  let snap =
    Array.map
      (fun st ->
        {
          Telemetry.busy_s = st.w_busy;
          tasks = st.w_tasks;
          cases = st.w_cases;
        })
      pool.stats
  in
  Mutex.unlock pool.mutex;
  snap

let wait pool =
  Mutex.lock pool.mutex;
  (* a pool whose last worker died can never drain its queue: stop
     waiting and report the death instead of hanging forever *)
  while pool.pending > 0 && pool.alive > 0 do
    Condition.wait pool.idle pool.mutex
  done;
  let failure = pool.failure in
  pool.failure <- None;
  let wedged = pool.pending > 0 && pool.alive = 0 in
  Mutex.unlock pool.mutex;
  match failure with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None ->
    if wedged then
      raise (Worker_died "every worker domain died; queued tasks abandoned")

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.closed <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.mutex;
  (* joining can race a death handler appending a replacement domain,
     so drain the worker list until it stays empty *)
  let rec drain () =
    Mutex.lock pool.mutex;
    let workers = pool.workers in
    pool.workers <- [];
    Mutex.unlock pool.mutex;
    if workers <> [] then begin
      List.iter Domain.join workers;
      drain ()
    end
  in
  drain ()

(* ------------------------------------------------------------------ *)
(* deterministic parallel map *)

(* submit [body k] for every [k] in [0, n), as tasks of [?chunk]
   contiguous items each *)
let submit_chunks ~fn pool ~jobs ?chunk n body =
  let chunk =
    match chunk with
    | Some c when c >= 1 -> c
    | Some _ -> invalid_arg (fn ^ ": chunk must be positive")
    (* small chunks smooth out the order-of-magnitude spread in
       per-case cost across programs; 4 chunks per worker bounds the
       tail wait by ~1/4 of a worker's share *)
    | None -> max 1 (n / (jobs * 4))
  in
  let lo = ref 0 in
  while !lo < n do
    let l = !lo and h = min n (!lo + chunk) in
    submit ~weight:(h - l) pool (fun () ->
        for k = l to h - 1 do
          body k
        done);
    lo := h
  done

(* a completion count from [start]: each call of the returned function
   bumps it and hands the new count to [?on_count] and [?progress],
   serialized under a dedicated lock, so both observe a strictly
   increasing count.  A raising progress callback must not poison the
   pool and void the computed results: the first exception disables
   further callbacks and the run completes normally. *)
let counter ?progress ?on_count ~start ~total () =
  if Option.is_none progress && Option.is_none on_count then ignore
  else begin
    let lock = Mutex.create () in
    let count = ref start in
    let progress = ref progress in
    fun () ->
      Mutex.lock lock;
      incr count;
      let done_ = !count in
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          Option.iter (fun f -> f done_) on_count;
          match !progress with
          | None -> ()
          | Some cb -> (
            try cb ~done_ ~total
            with exn ->
              progress := None;
              Ucp_obs.Log.warn
                "progress callback raised %s; progress reporting disabled for \
                 the rest of this run"
                (Printexc.to_string exn)))
  end

(* [f ()] as a structured outcome; a kill escapes task isolation by
   design, so the pool's death handler takes over *)
let outcome f =
  match f () with
  | v -> Outcome.Ok v
  | exception Deadline.Deadline_exceeded -> Outcome.Timed_out
  | exception Outcome.Invariant msg -> Outcome.Invariant_violation msg
  | exception (Fault.Killed_worker _ as e) -> raise e
  | exception exn ->
    let bt = Printexc.get_raw_backtrace () in
    Outcome.Failed
      {
        Outcome.exn_text = Printexc.to_string exn;
        backtrace = Printexc.raw_backtrace_to_string bt;
      }

let map ?jobs ?chunk ?progress ?telemetry f items =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Parallel.map: jobs must be positive";
  let n = Array.length items in
  if n = 0 then begin
    Option.iter (fun cb -> cb [||]) telemetry;
    [||]
  end
  else begin
    (* results land at their input index, so the output order is the
       input order no matter which worker finishes when *)
    let results = Array.make n None in
    (* per finished element, not per chunk *)
    let note_done = counter ?progress ~start:0 ~total:n () in
    let pool = create ~jobs () in
    Fun.protect
      ~finally:(fun () -> shutdown pool)
      (fun () ->
        submit_chunks ~fn:"Parallel.map" pool ~jobs ?chunk n (fun k ->
            results.(k) <- Some (f items.(k));
            note_done ());
        wait pool;
        Option.iter (fun cb -> cb (worker_stats pool)) telemetry);
    (* [None] is unreachable: [wait] returns normally only when no
       task is pending and none failed.  A task that raised left
       [pool.failure] set, and a worker that died set it to
       [Worker_died] (this pool never respawns), so [wait] re-raised.
       Every task that finished normally filled its whole chunk, and
       the chunks cover [0, n). *)
    Array.map (function Some v -> v | None -> assert false) results
  end

let try_map ?jobs ?chunk ?progress ?telemetry f items =
  map ?jobs ?chunk ?progress ?telemetry (fun x -> outcome (fun () -> f x)) items

(* ------------------------------------------------------------------ *)
(* the parallel evaluation sweep *)

type sweep = {
  records : Experiments.record list;
  results : (string * Experiments.record Outcome.t) list;
  failures : (string * Experiments.record Outcome.t) list;
  resumed : int;
  wall_s : float;
  jobs : int;
  cases : int;
  workers : Telemetry.worker_stat array;
  worker_restarts : int;
}

(* sweep-level instruments, registered on first use, so a sweep with
   metrics disabled never touches the registry *)
let case_seconds_buckets = [| 0.01; 0.03; 0.1; 0.3; 1.0; 3.0; 10.0; 30.0; 100.0 |]

(* per-case Gc.quick_stat delta + wall-clock, recorded around the case
   body (including failed cases: a case that dies after allocating for
   ten seconds should still show up in the histograms) *)
let observed_case f =
  if not (Ucp_obs.Metrics.enabled ()) then f ()
  else begin
    let t0 = Clock.now_s () in
    let g0 = Gc.quick_stat () in
    Fun.protect
      ~finally:(fun () ->
        let g1 = Gc.quick_stat () in
        Ucp_obs.Metrics.fadd (Ucp_obs.Metrics.fcounter "gc_minor_words_total")
          (g1.Gc.minor_words -. g0.Gc.minor_words);
        Ucp_obs.Metrics.fadd (Ucp_obs.Metrics.fcounter "gc_major_words_total")
          (g1.Gc.major_words -. g0.Gc.major_words);
        Ucp_obs.Metrics.add
          (Ucp_obs.Metrics.counter "gc_minor_collections_total")
          (g1.Gc.minor_collections - g0.Gc.minor_collections);
        Ucp_obs.Metrics.add
          (Ucp_obs.Metrics.counter "gc_major_collections_total")
          (g1.Gc.major_collections - g0.Gc.major_collections);
        Ucp_obs.Metrics.observe
          (Ucp_obs.Metrics.histogram "case_duration_seconds" ~buckets:case_seconds_buckets)
          (Clock.now_s () -. t0))
      f
  end

let sweep ?(programs = Ucp_workloads.Suite.all)
    ?(configs = Experiments.default_configs) ?(techs = Tech.all)
    ?(policies = [ Ucp_policy.Lru ]) ?(audit = Ucp_verify.Off)
    ?(refine = Ucp_refine.Mode.Nc) ?jobs ?chunk
    ?progress ?heartbeat ?timeout ?checkpoint ?(resume = false) () =
  (match timeout with
  | Some t when (not (Float.is_finite t)) || t <= 0.0 ->
    invalid_arg "Parallel.sweep: timeout must be a positive number of seconds"
  | Some _ | None -> ());
  (match heartbeat with
  | Some h when (not (Float.is_finite h)) || h <= 0.0 ->
    invalid_arg "Parallel.sweep: heartbeat must be a positive number of seconds"
  | Some _ | None -> ());
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let cases = Experiments.cases ~policies ~programs ~configs ~techs () in
  let models = Experiments.model_table configs techs in
  let memo = Experiments.Analysis_memo.create () in
  let n = Array.length cases in
  let journal =
    match checkpoint with
    | None -> None
    | Some path ->
      let fingerprint =
        Checkpoint.fingerprint ~policies ~refine ~programs ~configs ~techs ()
      in
      Some (Checkpoint.start ~path ~fingerprint ~resume)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Checkpoint.close journal)
    (fun () ->
      let t0 = Clock.now_s () in
      (* cases already journaled by an interrupted run are replayed, not
         re-evaluated; [final] collects one outcome per input index *)
      let final : Experiments.record Outcome.t option array =
        Array.make n None
      in
      let resumed = ref 0 in
      (match journal with
      | None -> ()
      | Some j ->
        let done_ = Checkpoint.completed j in
        Array.iteri
          (fun i c ->
            match Hashtbl.find_opt done_ (Experiments.case_id c) with
            | Some r ->
              incr resumed;
              final.(i) <- Some (Outcome.Ok r)
            | None -> ())
          cases);
      let todo =
        Array.of_list
          (List.filter (fun i -> Option.is_none final.(i)) (List.init n Fun.id))
      in
      (* grid-level completion count, fed by the finalize path and read
         by the heartbeat domain *)
      let hb_done = Atomic.make !resumed in
      let note_done =
        counter ?progress ~on_count:(Atomic.set hb_done) ~start:!resumed
          ~total:n ()
      in
      (* Evaluation and certification are separate work items on one
         pool: a case task analyzes/optimizes/simulates, then queues its
         deferred audit obligation (weight 0, so per-worker case counts
         tally each case once); fault hooks, invariant checks and
         journaling run only after the audit verdict is in — the same
         order the old inline audit observed. *)
      (* each index is written by exactly one task, so [final] needs no
         lock; [note_done] serializes the user-visible side effects *)
      let set_final i o =
        final.(i) <- Some o;
        note_done ()
      in
      let finalize id (r : Experiments.record) =
        let r = Fault.corrupt id r in
        (match Experiments.check_invariants r with
        | Ok () -> ()
        | Error msg -> raise (Outcome.Invariant msg));
        (* journal only sound, complete records; failures are retried
           on resume *)
        Option.iter (fun j -> Checkpoint.record j ~id r) journal;
        r
      in
      (* a killed worker domain must not sink the whole sweep: the pool
         replaces dead domains and the lost chunk's cases surface as
         structured failures below *)
      let pool = create ~respawn:true ~jobs () in
      let audit_task i id r input () =
        set_final i
          (outcome (fun () ->
               (* the obligation gets its own deadline window: time
                  spent queued behind other cases is not execution *)
               let deadline = Option.map Deadline.after timeout in
               let audit = Pipeline.finish_audit ?deadline input in
               finalize id { r with Experiments.audit }))
      in
      let case_task i =
        let c = cases.(i) in
        let id = Experiments.case_id c in
        let evaluated =
          outcome (fun () ->
              Ucp_obs.Trace.with_span ~name:"case"
                ~args:[ ("id", Ucp_obs.Trace.Str id) ] (fun () ->
                  observed_case (fun () ->
                      (* the deadline clock starts when the case starts
                         executing, not when the sweep was launched *)
                      let deadline = Option.map Deadline.after timeout in
                      Fault.apply_pre ?deadline id;
                      let model =
                        Hashtbl.find models
                          (c.Experiments.case_config, c.Experiments.case_tech)
                      in
                      Experiments.eval_case ?deadline ~memo
                        ~audit:(Ucp_verify.selects audit id)
                        ~corrupt_cert:(Fault.corrupt_cert id) ~refine
                        ~corrupt_refine:(Fault.corrupt_refine id) ~model c)))
        in
        match evaluated with
        | Outcome.Ok (r, Some input) ->
          submit ~weight:0 pool (audit_task i id r input)
        | Outcome.Ok (r, None) ->
          set_final i (outcome (fun () -> finalize id r))
        | Outcome.Failed f -> set_final i (Outcome.Failed f)
        | Outcome.Timed_out -> set_final i Outcome.Timed_out
        | Outcome.Invariant_violation m ->
          set_final i (Outcome.Invariant_violation m)
      in
      let stats = ref [||] in
      let pool_restarts = ref 0 in
      (* periodic liveness line on stderr: overall completion, sweep
         throughput and a run-rate ETA, so a hung worker is visible long
         before any per-case deadline fires *)
      let hb_stop = Atomic.make false in
      let hb_domain =
        Option.map
          (fun every ->
            Domain.spawn (fun () ->
                let started = Clock.now_s () in
                let rec loop next =
                  if not (Atomic.get hb_stop) then begin
                    Unix.sleepf 0.05;
                    let now = Clock.now_s () in
                    if now < next then loop next
                    else begin
                      let done_ = Atomic.get hb_done in
                      let elapsed = now -. started in
                      let rate =
                        if elapsed > 0.0 then
                          float_of_int (done_ - !resumed) /. elapsed
                        else 0.0
                      in
                      let eta =
                        if done_ >= n then "0s"
                        else if rate > 0.0 then
                          Printf.sprintf "%.0fs" (float_of_int (n - done_) /. rate)
                        else "?"
                      in
                      Ucp_obs.Log.out
                        (Printf.sprintf
                           "[heartbeat] %d/%d cases | %.2f case/s | elapsed %.0fs \
                            | eta %s"
                           done_ n rate elapsed eta);
                      loop (next +. every)
                    end
                  end
                in
                loop (started +. every)))
          heartbeat
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set hb_stop true;
          Option.iter Domain.join hb_domain)
        (fun () ->
          Fun.protect
            ~finally:(fun () -> shutdown pool)
            (fun () ->
              submit_chunks ~fn:"Parallel.sweep" pool ~jobs ?chunk
                (Array.length todo) (fun k -> case_task todo.(k));
              wait pool;
              stats := worker_stats pool;
              pool_restarts := restarts pool));
      let results =
        Array.to_list
          (Array.mapi
             (fun i c ->
               match final.(i) with
               | Some o -> (Experiments.case_id c, o)
               | None ->
                 (* the chunk task holding this case died with its
                    worker domain before [set_final] ran *)
                 ( Experiments.case_id c,
                   Outcome.Failed
                     {
                       Outcome.exn_text =
                         "case lost: worker domain died mid-task";
                       backtrace = "";
                     } ))
             cases)
      in
      {
        records =
          List.filter_map
            (fun (_, o) ->
              match o with Outcome.Ok r -> Some r | _ -> None)
            results;
        results;
        failures = List.filter (fun (_, o) -> not (Outcome.is_ok o)) results;
        resumed = !resumed;
        wall_s = Clock.now_s () -. t0;
        jobs;
        cases = n;
        workers = !stats;
        worker_restarts = !pool_restarts;
      })
