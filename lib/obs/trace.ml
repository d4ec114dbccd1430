(* Structured tracing: lightweight spans recorded into per-domain
   ring buffers and exported as Chrome trace_event JSON (loadable in
   Perfetto / chrome://tracing).

   Each domain appends completed spans to its own bounded ring — the
   only shared structure is a registry of rings, locked once per domain
   lifetime when the domain records its first span.  The ring holds the
   {e newest} [capacity] spans; once full, each append overwrites the
   oldest span and bumps {!dropped} (and the
   [trace_spans_dropped_total] metrics counter), so a long-running
   --trace'd daemon keeps a window onto recent requests instead of
   growing without bound.

   The per-ring mutex exists for the daemon: its connection handlers
   are systhreads sharing domain 0, so one domain state can be mutated
   from several threads.  While tracing is disabled (the default)
   [with_span] runs its body directly after a single [Atomic.get], so
   instrumented code has no measurable overhead in an untraced run. *)

type arg = Int of int | Float of float | Str of string

type span = {
  span_name : string;
  ts_us : float;  (* start, microseconds since [start ()] *)
  dur_us : float;
  tid : int;  (* numeric id of the recording domain *)
  depth : int;  (* nesting depth within its domain, 0 = top level *)
  args : (string * arg) list;
}

type open_span = {
  o_name : string;
  o_t0 : float;
  o_depth : int;
  mutable o_args : (string * arg) list;
}

let dummy_span =
  { span_name = ""; ts_us = 0.0; dur_us = 0.0; tid = 0; depth = 0; args = [] }

type dstate = {
  tid : int;
  dmutex : Mutex.t;  (* daemon systhreads share one domain's state *)
  mutable stack : open_span list;  (* innermost first *)
  mutable ring : span array;  (* newest [capacity] completed spans *)
  mutable head : int;  (* next write slot *)
  mutable filled : int;  (* valid entries, <= Array.length ring *)
}

let enabled_flag = Atomic.make false
(* [Clock.now_s] at [start]; span times are microseconds since it *)
let epoch = Atomic.make 0.0

(* per-domain ring capacity; applied to new domain states immediately
   and to existing ones at the next [start]/[clear] *)
let default_capacity = 65_536
let capacity_req = Atomic.make default_capacity

(* total spans overwritten before export, across all rings *)
let dropped_total = Atomic.make 0

(* every domain that ever recorded a span, so [spans]/[export] can
   collect buffers even after the worker domains have terminated *)
let registry : dstate list ref = ref []
let registry_mutex = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let st =
        {
          tid = (Domain.self () :> int);
          dmutex = Mutex.create ();
          stack = [];
          ring = Array.make (Atomic.get capacity_req) dummy_span;
          head = 0;
          filled = 0;
        }
      in
      Mutex.lock registry_mutex;
      registry := st :: !registry;
      Mutex.unlock registry_mutex;
      st)

let enabled () = Atomic.get enabled_flag

let set_capacity n =
  if n < 1 then invalid_arg "Trace.set_capacity: capacity must be positive";
  Atomic.set capacity_req n

let capacity () = Atomic.get capacity_req
let dropped () = Atomic.get dropped_total

let clear () =
  Mutex.lock registry_mutex;
  let cap = Atomic.get capacity_req in
  List.iter
    (fun st ->
      Mutex.lock st.dmutex;
      st.stack <- [];
      if Array.length st.ring <> cap then st.ring <- Array.make cap dummy_span
      else Array.fill st.ring 0 cap dummy_span;
      st.head <- 0;
      st.filled <- 0;
      Mutex.unlock st.dmutex)
    !registry;
  Atomic.set dropped_total 0;
  Mutex.unlock registry_mutex

let start () =
  clear ();
  Atomic.set epoch (Ucp_util.Clock.now_s ());
  Atomic.set enabled_flag true

let stop () = Atomic.set enabled_flag false

let now_us () = (Ucp_util.Clock.now_s () -. Atomic.get epoch) *. 1e6

(* caller holds [st.dmutex] *)
let append st s =
  let cap = Array.length st.ring in
  st.ring.(st.head) <- s;
  st.head <- (st.head + 1) mod cap;
  if st.filled < cap then st.filled <- st.filled + 1
  else begin
    (* overwrote the oldest span *)
    Atomic.incr dropped_total;
    Metrics.incr (Metrics.counter "trace_spans_dropped_total")
  end

let with_span ~name ?(args = []) f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let st = Domain.DLS.get key in
    (* requests carry their trace id into every span they open, so the
       exported trace shows one connected tree per request *)
    let args =
      match Ctx.current () with
      | Some c when not (List.mem_assoc "trace_id" args) ->
        ("trace_id", Str (Ctx.trace_hex c)) :: args
      | Some _ | None -> args
    in
    Mutex.lock st.dmutex;
    let o =
      { o_name = name; o_t0 = now_us (); o_depth = List.length st.stack; o_args = args }
    in
    st.stack <- o :: st.stack;
    Mutex.unlock st.dmutex;
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock st.dmutex;
        (match st.stack with
        | top :: rest when top == o -> st.stack <- rest
        | _ ->
          (* a child span leaked past its parent's close; drop down to
             (and including) our frame so the stack stays consistent *)
          let rec pop = function
            | top :: rest -> if top == o then rest else pop rest
            | [] -> []
          in
          st.stack <- pop st.stack);
        append st
          {
            span_name = o.o_name;
            ts_us = o.o_t0;
            dur_us = now_us () -. o.o_t0;
            tid = st.tid;
            depth = o.o_depth;
            args = List.rev o.o_args;
          };
        Mutex.unlock st.dmutex)
      f
  end

let set_arg name value =
  if Atomic.get enabled_flag then begin
    let st = Domain.DLS.get key in
    Mutex.lock st.dmutex;
    (match st.stack with
    | o :: _ ->
      o.o_args <- (name, value) :: List.filter (fun (k, _) -> k <> name) o.o_args
    | [] -> ());
    Mutex.unlock st.dmutex
  end

(* Collect the completed spans of every domain, oldest first.  Each
   ring is snapshotted under its own mutex, so collection is safe even
   while daemon threads are still recording. *)
let spans () =
  Mutex.lock registry_mutex;
  let states = !registry in
  Mutex.unlock registry_mutex;
  let all =
    List.concat_map
      (fun st ->
        Mutex.lock st.dmutex;
        let cap = Array.length st.ring in
        let out =
          List.init st.filled (fun i ->
              st.ring.((st.head - st.filled + i + (2 * cap)) mod cap))
        in
        Mutex.unlock st.dmutex;
        out)
      states
  in
  List.sort (fun a b -> compare (a.ts_us, a.tid) (b.ts_us, b.tid)) all

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export *)

let json_of_arg = function
  | Int n -> Ucp_util.Json.Num (float_of_int n)
  | Float x -> Ucp_util.Json.Num x
  | Str s -> Ucp_util.Json.Str s

let json_of_span s =
  let base =
    [
      ("name", Ucp_util.Json.Str s.span_name);
      ("cat", Ucp_util.Json.Str "ucp");
      ("ph", Ucp_util.Json.Str "X");
      ("ts", Ucp_util.Json.Num s.ts_us);
      ("dur", Ucp_util.Json.Num s.dur_us);
      ("pid", Ucp_util.Json.Num 1.0);
      ("tid", Ucp_util.Json.Num (float_of_int s.tid));
    ]
  in
  let args =
    match s.args with
    | [] -> []
    | args ->
      [ ("args", Ucp_util.Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) args)) ]
  in
  Ucp_util.Json.Obj (base @ args)

let to_json () =
  Ucp_util.Json.Obj
    [
      ("traceEvents", Ucp_util.Json.Arr (List.map json_of_span (spans ())));
      ("displayTimeUnit", Ucp_util.Json.Str "ms");
    ]

let export path =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (match
     let json = Ucp_util.Json.to_string (to_json ()) in
     output_string oc json;
     output_char oc '\n'
   with
  | () -> close_out oc
  | exception exn ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise exn);
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* reading a recorded trace back (the `ucp trace` subcommand and the
   round-trip tests) *)

let span_of_json j =
  let module J = Ucp_util.Json in
  let str k = Option.bind (J.member k j) J.to_str in
  let num k = Option.bind (J.member k j) J.to_float in
  match (str "name", str "ph", num "ts", num "dur", num "tid") with
  | Some span_name, Some "X", Some ts_us, Some dur_us, Some tid ->
    let args =
      match J.member "args" j with
      | Some (J.Obj members) ->
        List.map
          (fun (k, v) ->
            match v with
            | J.Num x when Float.is_integer x -> (k, Int (int_of_float x))
            | J.Num x -> (k, Float x)
            | J.Str s -> (k, Str s)
            | _ -> (k, Str (J.to_string v)))
          members
      | _ -> []
    in
    Ok { span_name; ts_us; dur_us; tid = int_of_float tid; depth = 0; args }
  | _ -> Error (Printf.sprintf "not a complete span event: %s" (Ucp_util.Json.to_string j))

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  let module J = Ucp_util.Json in
  match J.parse src with
  | Error msg -> Error msg
  | Ok j -> (
    match Option.bind (J.member "traceEvents" j) J.to_list with
    | None -> Error "missing \"traceEvents\" array"
    | Some events ->
      let rec collect acc = function
        | [] -> Ok (List.rev acc)
        | e :: rest -> (
          match span_of_json e with
          | Ok s -> collect (s :: acc) rest
          | Error msg -> Error msg)
      in
      collect [] events)
