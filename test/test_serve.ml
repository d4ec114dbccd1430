(* Tests for the analysis service: protocol framing/serialization
   (round-trip + fuzz), the self-healing result store, and the daemon
   itself run in-process on a temp socket and exercised through the
   retrying client. *)

module P = Ucp_serve.Protocol
module Store = Ucp_serve.Store
module Server = Ucp_serve.Server
module Client = Ucp_serve.Client
module Fault = Ucp_core.Fault

let with_faults faults f =
  List.iter (fun (id, mode) -> Fault.set id mode) faults;
  Fun.protect ~finally:Fault.clear f

let temp_dir prefix =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir d 0o755;
  d

let rm_rf dir =
  let rec walk p =
    if Sys.is_directory p then (
      Array.iter (fun n -> walk (Filename.concat p n)) (Sys.readdir p);
      Unix.rmdir p)
    else Sys.remove p
  in
  try walk dir with Sys_error _ | Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Protocol: framing                                                   *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let payloads = [ ""; "x"; "{\"v\":1}"; String.make 4096 'z'; "a\nb\nc" ] in
  List.iter
    (fun p ->
      match P.unframe (P.frame p) with
      | P.Frame (got, rest) ->
        Alcotest.(check string) "payload" p got;
        Alcotest.(check string) "no tail" "" rest
      | P.Incomplete -> Alcotest.fail "framed payload decoded Incomplete"
      | P.Malformed m -> Alcotest.fail ("framed payload Malformed: " ^ m))
    payloads;
  (* two frames back to back: the tail carries the second *)
  (match P.unframe (P.frame "one" ^ P.frame "two") with
  | P.Frame ("one", rest) -> (
    match P.unframe rest with
    | P.Frame ("two", "") -> ()
    | _ -> Alcotest.fail "second frame lost")
  | _ -> Alcotest.fail "first frame lost")

let test_frame_rejects_oversize () =
  Alcotest.check_raises "oversize frame"
    (Invalid_argument "Protocol.frame: payload exceeds max_frame") (fun () ->
      ignore (P.frame (String.make (P.max_frame + 1) 'a')))

let test_unframe_incomplete () =
  let f = P.frame "hello incremental decoder" in
  for i = 0 to String.length f - 1 do
    match P.unframe (String.sub f 0 i) with
    | P.Incomplete -> ()
    | P.Frame _ -> Alcotest.fail (Printf.sprintf "prefix %d decoded a frame" i)
    | P.Malformed m ->
      Alcotest.fail (Printf.sprintf "prefix %d Malformed: %s" i m)
  done

let test_unframe_malformed () =
  let malformed =
    [
      "hello\nworld\n" (* non-digit length line *);
      "-3\nabc\n" (* negative *);
      "12x\n" (* digits then junk *);
      "999999999999\n" (* over max_frame *);
      "3\nabcX" (* wrong frame terminator *);
      "\n\n" (* empty length line *);
      "0123456789\n" (* length line longer than max_header *);
    ]
  in
  List.iter
    (fun s ->
      match P.unframe s with
      | P.Malformed _ -> ()
      | P.Incomplete -> Alcotest.fail (Printf.sprintf "%S: Incomplete" s)
      | P.Frame _ -> Alcotest.fail (Printf.sprintf "%S: decoded a frame" s))
    malformed

(* Fuzz: unframe must never raise, whatever bytes arrive. *)
let prop_unframe_total =
  QCheck2.Test.make ~count:500 ~name:"unframe total on arbitrary bytes"
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 64))
    (fun s ->
      match P.unframe s with
      | P.Frame (p, rest) ->
        String.length p + String.length rest <= String.length s
      | P.Incomplete | P.Malformed _ -> true)

let prop_frame_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"frame/unframe round-trip"
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 256))
    (fun p ->
      match P.unframe (P.frame p) with
      | P.Frame (got, "") -> String.equal got p
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Protocol: message serialization                                     *)
(* ------------------------------------------------------------------ *)

let gen_id =
  QCheck2.Gen.(
    let seg = string_size ~gen:(char_range 'a''z') (int_range 1 6) in
    map
      (fun (a, (b, (c, d))) -> String.concat ":" [ a; b; c; d ])
      (pair seg (pair seg (pair seg seg))))

let gen_text =
  QCheck2.Gen.(string_size ~gen:(char_range ' ' '~') (int_bound 40))

(* exactly 16 lowercase hex chars — the only shape the wire accepts *)
let gen_trace_id =
  QCheck2.Gen.(
    map
      (fun ds -> String.concat "" (List.map (Printf.sprintf "%x") ds))
      (list_size (return 16) (int_bound 15)))

let gen_request =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun id trace_id -> P.Case { id; trace_id })
          gen_id (option gen_trace_id);
        return P.Health;
        return P.Metrics;
        return P.Shutdown;
      ])

let gen_response =
  QCheck2.Gen.(
    let source = oneofl [ P.Memory; P.Store; P.Computed ] in
    (* exact binary fractions so float round-trip is bit-identical *)
    let delay = map (fun n -> float_of_int n /. 16.) (int_bound 512) in
    let trace = option gen_trace_id in
    let gen_health =
      map2
        (fun counters (gauges, hists) ->
          P.Health_stats { P.counters; gauges; hists })
        (small_list (pair gen_text (int_bound 10_000)))
        (pair
           (small_list (pair gen_text delay))
           (small_list
              (map2
                 (fun k (c, s) -> (k, { P.hs_count = c; hs_sum = s }))
                 gen_text
                 (pair (int_bound 1000) delay))))
    in
    oneof
      [
        map2
          (fun (id, src) (json, trace_id) ->
            P.Record { id; source = src; json; trace_id })
          (pair gen_id source) (pair gen_text trace);
        gen_health;
        map (fun text -> P.Metrics_text text) gen_text;
        map2
          (fun (after_s, reason) trace_id ->
            P.Retry { after_s; reason; trace_id })
          (pair delay gen_text) trace;
        map2
          (fun (retryable, message) trace_id ->
            P.Failed { retryable; message; trace_id })
          (pair bool gen_text) trace;
        return P.Bye;
      ])

let prop_request_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"request serialization round-trip"
    gen_request (fun r ->
      match P.request_of_string (P.request_to_string r) with
      | Ok r' -> r' = r
      | Error _ -> false)

let prop_response_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"response serialization round-trip"
    gen_response (fun r ->
      match P.response_of_string (P.response_to_string r) with
      | Ok r' -> r' = r
      | Error _ -> false)

(* Garbage never parses as a message; decoding must never raise. *)
let prop_decode_total =
  QCheck2.Test.make ~count:500 ~name:"decode total on arbitrary bytes"
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 48))
    (fun s ->
      (match P.request_of_string s with Ok _ | Error _ -> true)
      && match P.response_of_string s with Ok _ | Error _ -> true)

let test_decode_rejects_wrong_version () =
  (match P.request_of_string "{\"v\":2,\"req\":\"health\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted future protocol version");
  match P.response_of_string "{\"v\":0,\"resp\":\"bye\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted version 0"

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip () =
  let dir = temp_dir "ucp-store" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let s = Store.open_ ~dir in
      let key = "00aa11bb" and line = "{\"program\":\"fft1\",\"tau\":42}" in
      Alcotest.(check (option string)) "miss before put" None (Store.find s ~key);
      Store.put s ~id:"fft1:k1:45nm:lru" ~key line;
      Alcotest.(check (option string))
        "hit after put" (Some line) (Store.find s ~key);
      (* a fresh handle on the same directory sees the entry: the store
         is the only persistent state, so this is restart recovery *)
      let s2 = Store.open_ ~dir in
      Alcotest.(check (option string))
        "hit after reopen" (Some line)
        (Store.find s2 ~key))

let test_store_corruption_quarantined () =
  let dir = temp_dir "ucp-store" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let s = Store.open_ ~dir in
      let key = "feedc0de" and line = "{\"program\":\"crc\",\"tau\":7}" in
      Store.put s ~id:"crc:k1:45nm:lru" ~key line;
      (* flip one payload byte on disk behind the store's back *)
      let p = Filename.concat dir (key ^ ".rec") in
      let fd = Unix.openfile p [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd 12 Unix.SEEK_SET);
      ignore (Unix.write_substring fd "X" 0 1);
      Unix.close fd;
      Alcotest.(check (option string))
        "corrupt entry is a miss" None (Store.find s ~key);
      Alcotest.(check int) "quarantined" 1 (Store.quarantined s);
      Alcotest.(check bool)
        "bytes kept for post-mortem" true
        (Sys.file_exists (p ^ ".quarantine"));
      (* self-healing: re-put and the entry serves again *)
      Store.put s ~id:"crc:k1:45nm:lru" ~key line;
      Alcotest.(check (option string))
        "healed" (Some line) (Store.find s ~key))

let test_store_fault_hook () =
  let dir = temp_dir "ucp-store" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      with_faults
        [ ("fft1:k1:45nm:lru", Fault.Corrupt_store) ]
        (fun () ->
          let s = Store.open_ ~dir in
          let key = "0badf00d" and line = "{\"program\":\"fft1\"}" in
          Store.put s ~id:"fft1:k1:45nm:lru" ~key line;
          Alcotest.(check int)
            "hook scribbled the entry" 1
            (Store.corruptions_injected s);
          Alcotest.(check (option string))
            "scribbled entry quarantined" None (Store.find s ~key);
          Alcotest.(check int) "quarantined" 1 (Store.quarantined s);
          (* the hook is one-shot: the re-put persists cleanly *)
          Store.put s ~id:"fft1:k1:45nm:lru" ~key line;
          Alcotest.(check (option string))
            "second put survives" (Some line) (Store.find s ~key)))

let test_store_sweeps_tmp () =
  let dir = temp_dir "ucp-store" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let stale = Filename.concat dir "entry.rec.tmp.1234" in
      let oc = open_out stale in
      output_string oc "torn write";
      close_out oc;
      ignore (Store.open_ ~dir);
      Alcotest.(check bool)
        "stale temp file swept" false (Sys.file_exists stale))

(* ------------------------------------------------------------------ *)
(* Daemon in-process                                                   *)
(* ------------------------------------------------------------------ *)

let sock_counter = ref 0

let fresh_socket () =
  incr sock_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ucp-t%d-%d.sock" (Unix.getpid ()) !sock_counter)

let start_server cfg =
  Thread.create (fun () -> Server.run ~signals:false cfg) ()

let stop_server ~socket thread =
  (match Client.query ~socket P.Shutdown with
  | Ok P.Bye -> ()
  | Ok _ | Error _ -> ());
  Thread.join thread

let query_record ~socket id =
  match Client.query ~socket (P.Case { id; trace_id = None }) with
  | Ok (P.Record { id = rid; source; json; _ }) ->
    Alcotest.(check string) "record id" id rid;
    (source, json)
  | Ok _ -> Alcotest.fail "expected a record"
  | Error e -> Alcotest.fail ("query failed: " ^ e)

let health ~socket =
  match Client.query ~socket P.Health with
  | Ok (P.Health_stats h) -> h
  | Ok _ -> Alcotest.fail "expected health stats"
  | Error e -> Alcotest.fail ("health failed: " ^ e)

let stat (h : P.health) name =
  match List.assoc_opt name h.P.counters with
  | Some v -> v
  | None -> Alcotest.fail ("health stat missing: " ^ name)

let source_name = function
  | P.Memory -> "memory"
  | P.Store -> "store"
  | P.Computed -> "computed"

let check_source what expected got =
  Alcotest.(check string) what (source_name expected) (source_name got)

let test_server_cache_tiers () =
  let socket = fresh_socket () and dir = temp_dir "ucp-serve" in
  let id = "crc:k1:45nm:lru" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cfg = Server.default_config ~socket ~store_dir:dir in
      let th = start_server { cfg with jobs = 1 } in
      let src1, json1 = query_record ~socket id in
      check_source "cold query computes" P.Computed src1;
      let src2, json2 = query_record ~socket id in
      check_source "warm query hits memory" P.Memory src2;
      Alcotest.(check string) "identical answer" json1 json2;
      stop_server ~socket th;
      (* restart on the same store: the memory cache is gone but the
         on-disk store answers — crash-only recovery *)
      let th = start_server { cfg with jobs = 1 } in
      let src3, json3 = query_record ~socket id in
      check_source "restart answers from store" P.Store src3;
      Alcotest.(check string) "byte-identical across restart" json1 json3;
      stop_server ~socket th)

let test_server_kill_worker_retry () =
  let socket = fresh_socket () and dir = temp_dir "ucp-serve" in
  let id = "crc:k1:45nm:lru" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      with_faults
        [ (id, Fault.Kill_worker) ]
        (fun () ->
          let cfg = Server.default_config ~socket ~store_dir:dir in
          let th = start_server { cfg with jobs = 1 } in
          (* first attempt kills the worker domain; the request slot is
             filled with a retryable error, the pool respawns, and the
             client's retry gets a real answer *)
          let src, _ = query_record ~socket id in
          check_source "retry recomputes" P.Computed src;
          let kvs = health ~socket in
          Alcotest.(check bool)
            "worker restart recorded" true
            (stat kvs "worker_restarts" >= 1);
          stop_server ~socket th))

let test_server_corrupt_store_heals () =
  let socket = fresh_socket () and dir = temp_dir "ucp-serve" in
  let id = "crc:k1:45nm:lru" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      with_faults
        [ (id, Fault.Corrupt_store) ]
        (fun () ->
          let cfg = Server.default_config ~socket ~store_dir:dir in
          (* cache_capacity 0 disables the memory tier, forcing the
             second query through the (scribbled) store entry *)
          let th = start_server { cfg with jobs = 1; cache_capacity = 0 } in
          let src1, json1 = query_record ~socket id in
          check_source "cold query computes" P.Computed src1;
          let src2, json2 = query_record ~socket id in
          check_source "corrupt entry recomputed" P.Computed src2;
          Alcotest.(check string) "identical after healing" json1 json2;
          let kvs = health ~socket in
          Alcotest.(check bool)
            "quarantine recorded" true
            (stat kvs "store_quarantined" >= 1);
          Alcotest.(check int)
            "injection recorded" 1
            (stat kvs "store_corruptions_injected");
          (* healed: with the cache off, the third query is a store hit *)
          let src3, _ = query_record ~socket id in
          check_source "healed entry serves" P.Store src3;
          stop_server ~socket th))

let test_server_rejects_unknown_case () =
  let socket = fresh_socket () and dir = temp_dir "ucp-serve" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cfg = Server.default_config ~socket ~store_dir:dir in
      let th = start_server { cfg with jobs = 1 } in
      (match Client.query ~socket (P.Case { id = "no-such-case"; trace_id = None }) with
      | Ok (P.Failed { retryable; _ }) ->
        Alcotest.(check bool) "not retryable" false retryable
      | Ok _ -> Alcotest.fail "unknown case answered"
      | Error e -> Alcotest.fail ("transport error: " ^ e));
      stop_server ~socket th)

(* Telemetry surface of the daemon: a client-assigned trace id is
   echoed on the answer, an unmarked request still gets a well-formed
   server-derived id, the Metrics query serves Prometheus text with a
   count line for each of the four per-tier latency histograms, and the
   health reply carries the histogram {count,sum} summaries (the
   instruments the old counter-only reply silently dropped). *)
let test_server_trace_echo_and_metrics () =
  let socket = fresh_socket () and dir = temp_dir "ucp-serve" in
  let id = "crc:k1:45nm:lru" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cfg = Server.default_config ~socket ~store_dir:dir in
      let th = start_server { cfg with jobs = 1 } in
      let trace = "00decafc0ffee042" in
      (match Client.query ~socket (P.Case { id; trace_id = Some trace }) with
      | Ok (P.Record { trace_id; _ }) ->
        Alcotest.(check (option string))
          "client trace id echoed" (Some trace) trace_id
      | Ok _ -> Alcotest.fail "expected a record"
      | Error e -> Alcotest.fail ("query failed: " ^ e));
      (match Client.query ~socket (P.Case { id; trace_id = None }) with
      | Ok (P.Record { trace_id = Some t; _ }) ->
        Alcotest.(check bool)
          "derived trace id well-formed" true (P.valid_trace_id t)
      | Ok (P.Record { trace_id = None; _ }) ->
        Alcotest.fail "no trace id assigned to an unmarked request"
      | Ok _ -> Alcotest.fail "expected a record"
      | Error e -> Alcotest.fail ("query failed: " ^ e));
      (match Client.query ~socket P.Metrics with
      | Ok (P.Metrics_text text) ->
        let lines = String.split_on_char '\n' text in
        List.iter
          (fun t ->
            let prefix = Printf.sprintf "serve_latency_s_count{tier=\"%s\"} " t in
            Alcotest.(check bool) (t ^ " tier exposed") true
              (List.exists (String.starts_with ~prefix) lines))
          [ "cache"; "store"; "cold"; "shed" ]
      | Ok _ -> Alcotest.fail "expected metrics text"
      | Error e -> Alcotest.fail ("metrics failed: " ^ e));
      let h = health ~socket in
      Alcotest.(check bool)
        "latency histogram summarized in health" true
        (List.mem_assoc "serve_latency_s{tier=\"cold\"}" h.P.hists);
      (match List.assoc_opt "serve_latency_s{tier=\"cold\"}" h.P.hists with
      | Some { P.hs_count; _ } ->
        Alcotest.(check bool) "cold tier observed" true (hs_count >= 1)
      | None -> ());
      stop_server ~socket th)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ucp_serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "frame rejects oversize" `Quick
            test_frame_rejects_oversize;
          Alcotest.test_case "unframe incomplete prefixes" `Quick
            test_unframe_incomplete;
          Alcotest.test_case "unframe malformed streams" `Quick
            test_unframe_malformed;
          Alcotest.test_case "decode rejects wrong version" `Quick
            test_decode_rejects_wrong_version;
          q prop_unframe_total;
          q prop_frame_roundtrip;
          q prop_request_roundtrip;
          q prop_response_roundtrip;
          q prop_decode_total;
        ] );
      ( "store",
        [
          Alcotest.test_case "put/find round-trip" `Quick test_store_roundtrip;
          Alcotest.test_case "corruption quarantined" `Quick
            test_store_corruption_quarantined;
          Alcotest.test_case "corrupt-store fault hook" `Quick
            test_store_fault_hook;
          Alcotest.test_case "open sweeps temp files" `Quick
            test_store_sweeps_tmp;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "cache tiers and restart recovery" `Slow
            test_server_cache_tiers;
          Alcotest.test_case "kill-worker retried to success" `Slow
            test_server_kill_worker_retry;
          Alcotest.test_case "corrupt store heals" `Slow
            test_server_corrupt_store_heals;
          Alcotest.test_case "unknown case is a clean failure" `Quick
            test_server_rejects_unknown_case;
          Alcotest.test_case "trace echo, metrics text, health hists" `Slow
            test_server_trace_echo_and_metrics;
        ] );
    ]
