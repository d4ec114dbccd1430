(* The serve-mix workload: `ucp serve` daemons (one worker domain, a
   16-entry memory cache) in child processes, on sockets and a store
   under the run directory, and one closed-loop client in this process
   that waits for each reply before sending the next request.

   The daemons run in their own processes, as they do for `ucp serve`
   users: in this process their connection threads would share one
   runtime lock with the client, and the lock hand-offs, not the
   daemon, would set the latency.

   The client first asks each of the 64 case ids once from one daemon
   (the cold tier, which also fills the store).  Each pass then starts
   a fresh daemon over that store (the crash-only restart the store
   exists for) and replays the 8000-query Zipf stream through it, so
   every pass sends the same requests to the same tiers: with 16 of 64
   ids cached, about 60 % of them hit the memory tier and the rest read
   the store.  A fresh daemon per pass also makes its peak memory a
   property of a fixed amount of work: the daemon keeps a handle for
   every connection it has accepted, so its memory grows with the
   number of requests it has served.

   Latency is timed per request on the client with {!Client.once} (no
   retries, so a failure is counted rather than hidden by backoff), and
   percentiles are nearest-rank over every sample.  The daemon's own
   serve_latency_s histograms are not used for percentiles: their
   bucket bounds (0.5 ms lowest) would report a memory-tier p50 of
   exactly 0.0005 s, as BENCH_10.json does, while the real value is
   around 0.1 ms; only their exact sums are read, as the server-side
   share of each tier. *)

module Server = Ucp_serve.Server
module Client = Ucp_serve.Client
module P = Ucp_serve.Protocol

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

(* the child process: [ucpbench.exe serve-daemon SOCKET STORE [TRACE]] *)
let daemon_main ~socket ~store_dir ~trace =
  Server.run
    { (Server.default_config ~socket ~store_dir) with Server.jobs = 1; cache_capacity = 16; trace }

type daemon = { pid : int; socket : string }

let health d =
  match Client.once ~socket:d.socket P.Health with
  | Ok (P.Health_stats h) -> Some h
  | Ok _ | Error _ -> None

let started = ref 0

(* Start a daemon over [dir]/store and return it with its set-up time:
   from spawning the process to its first Health reply. *)
let start ?trace dir =
  incr started;
  let socket = Filename.concat dir (Printf.sprintf "d%d.sock" !started) in
  let t0 = Measure.now () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list
         ([ Sys.executable_name; "serve-daemon"; socket; Filename.concat dir "store" ]
         @ Option.to_list trace))
      Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; socket } in
  let rec ready () =
    match health d with
    | Some _ -> ()
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "daemon exited before answering");
      if Measure.now () -. t0 > 30.0 then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        failwith "daemon not ready after 30 s"
      end;
      Unix.sleepf 0.0002;
      ready ()
  in
  ready ();
  (d, { Measure.t0; dt = Measure.now () -. t0 })

let stop d =
  (match Client.once ~socket:d.socket P.Shutdown with
  | Ok P.Bye -> ()
  | Ok _ | Error _ -> Unix.kill d.pid Sys.sigkill);
  ignore (Unix.waitpid [] d.pid)

let with_daemon ?trace dir f =
  let d, setup = start ?trace dir in
  Fun.protect ~finally:(fun () -> stop d) (fun () -> f d setup)

let tier_names = [ (P.Memory, "memory"); (P.Store, "store"); (P.Computed, "cold") ]

(* the daemon's label for the same tier in its latency histograms *)
let server_tier = function P.Memory -> "cache" | P.Store -> "store" | P.Computed -> "cold"

(* per tier, the summed server-side latency so far *)
let server_sums d =
  let h = Option.get (health d) in
  List.map
    (fun (source, _) ->
      let name = Printf.sprintf "serve_latency_s{tier=%S}" (server_tier source) in
      (source, Option.fold ~none:0.0 ~some:(fun s -> s.P.hs_sum) (List.assoc_opt name h.P.hists)))
    tier_names

type tally = {
  latencies : (P.source, float list) Hashtbl.t;
  answers : (string, string) Hashtbl.t;  (** the first answer for each id *)
  mutable attempted : int;
  mutable failures : string list;
}

let new_tally () =
  { latencies = Hashtbl.create 3; answers = Hashtbl.create 64; attempted = 0; failures = [] }

(* one request; [expect] says which tiers may answer it *)
let ask ?host d tally ~expect id =
  tally.attempted <- tally.attempted + 1;
  let t0 = Measure.now () in
  let reply = Client.once ~socket:d.socket (P.Case { id; trace_id = None }) in
  let dt = Measure.now () -. t0 in
  let fail msg = tally.failures <- Printf.sprintf "%s: %s" id msg :: tally.failures in
  (match reply with
  | Ok (P.Record { source; json; _ }) when List.mem source expect -> (
    Hashtbl.replace tally.latencies source
      (dt :: Option.value ~default:[] (Hashtbl.find_opt tally.latencies source));
    match Hashtbl.find_opt tally.answers id with
    | None -> Hashtbl.add tally.answers id json
    | Some first -> if first <> json then fail "answer differs between tiers")
  | Ok (P.Record { source; _ }) -> fail ("unexpected tier " ^ List.assoc source tier_names)
  | Ok _ -> fail "reply is not a record"
  | Error e -> fail e);
  Option.iter Measure.maybe_probe host;
  { Measure.t0; dt }

let cold_phase ?host dir ~ids tally =
  with_daemon dir (fun d setup ->
      let before = server_sums d in
      Array.iter (fun id -> ignore (ask ?host d tally ~expect:[ P.Computed ] id)) ids;
      let cold_server = List.assoc P.Computed (server_sums d) -. List.assoc P.Computed before in
      (setup, cold_server))

let warm_pass ?host d tally queries =
  Array.map (ask ?host d tally ~expect:[ P.Memory; P.Store ]) queries

let samples tally source = Option.value ~default:[] (Hashtbl.find_opt tally.latencies source)

let tier_notes tally =
  List.map
    (fun (source, name) ->
      let xs = samples tally source in
      Printf.sprintf "%s: %d requests, p50 %.4f ms, p99 %.4f ms" name (List.length xs)
        (Measure.ms (Measure.percentile 50.0 xs))
        (Measure.ms (Measure.percentile 99.0 xs)))
    tier_names

let untraced_run dir ~ids ~queries ~seconds =
  let t0 = Measure.now () in
  let tally = new_tally () in
  let (setups, passes, rss), scale, host_note =
    Measure.probed (fun host ->
        let cold_setup, _ = cold_phase ~host dir ~ids tally in
        let setups = ref [ cold_setup ] and rss = ref [] in
        let passes =
          Measure.passes ~min_passes:3
            ~seconds:(seconds -. (Measure.now () -. t0))
            (fun () ->
              with_daemon dir (fun d setup ->
                  setups := setup :: !setups;
                  let p = warm_pass ~host d tally queries in
                  rss := Measure.peak_rss_mb ~pid:(string_of_int d.pid) () :: !rss;
                  p))
        in
        (!setups, passes, !rss))
  in
  {
    Measure.attempted = tally.attempted;
    failures = tally.failures;
    metrics =
      Measure.op_metrics scale passes
      @ [
          ("setup_s", Measure.median (List.map scale setups));
          ("peak_rss_mb", Measure.median rss);
        ];
    as_measured =
      Measure.op_metrics Measure.raw passes
      @ [ ("setup_s", Measure.median (List.map Measure.raw setups)) ];
    notes =
      Printf.sprintf "%d warm passes of %d queries over %d ids, one daemon each; %d set-ups"
        (List.length passes) (Array.length queries) (Array.length ids) (List.length setups)
      :: host_note :: tier_notes tally;
  }

(* Per-tier figures come from the cold requests and one untraced warm
   pass.  A third daemon, started with span tracing on, then serves one
   more warm pass, which prices the tracing at nominal host speed; the
   host is not probed during that pass, so that its wall time minus its
   requests' time is the client's own cost. *)
let traced_run dir ~ids ~queries =
  let tally = new_tally () in
  let _, cold_server = cold_phase dir ~ids tally in
  let traced_tally = { (new_tally ()) with answers = tally.answers } in
  let (untraced, server, traced, traced_wall, dropped), scale, host_note =
    Measure.probed (fun host ->
        let untraced, server =
          with_daemon dir (fun d _ ->
              let before = server_sums d in
              let pass = warm_pass ~host d tally queries in
              let after = server_sums d in
              ( pass,
                List.map
                  (fun (s, a) ->
                    (s, if s = P.Computed then cold_server else a -. List.assoc s before))
                  after ))
        in
        let traced, traced_wall, dropped =
          with_daemon dir ~trace:(Filename.concat dir "trace.json") (fun d _ ->
              let p0 = Measure.now () in
              let pass = warm_pass d traced_tally queries in
              let wall = Measure.now () -. p0 in
              let h = Option.get (health d) in
              ( pass,
                wall,
                Option.value ~default:0 (List.assoc_opt "trace_spans_dropped_total" h.P.counters)
              ))
        in
        (untraced, server, traced, traced_wall, dropped))
  in
  let failures = traced_tally.failures @ tally.failures in
  let tier (source, name) =
    let xs = samples tally source in
    [
      (Printf.sprintf "serve.%s.requests" name, float_of_int (List.length xs));
      (Printf.sprintf "serve.%s.busy_s" name, Measure.sum xs);
      (Printf.sprintf "serve.%s.server_s" name, List.assoc source server);
    ]
    @
    if source = P.Computed then []
    else
      [
        (Printf.sprintf "serve.%s.p50_ms" name, Measure.ms (Measure.percentile 50.0 xs));
        (Printf.sprintf "serve.%s.p99_ms" name, Measure.ms (Measure.percentile 99.0 xs));
      ]
  in
  {
    Measure.attempted = tally.attempted + traced_tally.attempted;
    failures;
    metrics =
      List.concat_map tier tier_names
      @ [
          ("serve.failed", float_of_int (List.length failures));
          ("other.self_s", traced_wall -. Measure.total Measure.raw traced);
          ( "trace.overhead_ratio",
            (Measure.total scale traced /. Measure.total scale untraced) -. 1.0 );
          ("trace.spans_dropped", float_of_int dropped);
        ];
    as_measured = [];
    notes = host_note :: tier_notes tally;
  }

let run ~name ~seed ~seconds ~traced =
  let dir = Filename.concat "_build" (Printf.sprintf "ucpbench-run-%d" (Unix.getpid ())) in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let ids, queries = Workloads.serve_inputs ~seed name in
      if traced then traced_run dir ~ids ~queries else untraced_run dir ~ids ~queries ~seconds)
