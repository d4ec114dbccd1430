module Deadline = Ucp_util.Deadline

type mode =
  | Raise
  | Stall of float
  | Corrupt_tau of int
  | Corrupt_cert
  | Corrupt_refine
  | Kill_worker
  | Corrupt_store
  | Stall_request of float

exception Injected of string
exception Killed_worker of string

let hooks : (string, mode) Hashtbl.t = Hashtbl.create 7
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let set id mode = with_lock (fun () -> Hashtbl.replace hooks id mode)
let clear () = with_lock (fun () -> Hashtbl.reset hooks)
let find id = with_lock (fun () -> Hashtbl.find_opt hooks id)

(* one-shot hooks: the serve-mode faults fire exactly once, so the
   client's retry (or the store's recompute) of the same case then
   succeeds — the fault models a transient crash, not a permanent bug *)
let take_if id pred =
  with_lock (fun () ->
      match Hashtbl.find_opt hooks id with
      | Some m when pred m ->
        Hashtbl.remove hooks id;
        Some m
      | Some _ | None -> None)

let parse_entry entry =
  match String.index_opt entry '=' with
  | None ->
    invalid_arg
      (Printf.sprintf
         "UCP_FAULT: %S: expected \
          <case_id>=<raise|stall|corrupt|corrupt-cert|corrupt-refine|kill-worker|corrupt-store|stall-request>"
         entry)
  | Some i ->
    let id = String.sub entry 0 i in
    let mode = String.sub entry (i + 1) (String.length entry - i - 1) in
    let arg name s default of_string =
      match String.split_on_char ':' s with
      | [ _ ] -> default
      | [ _; v ] -> (
        match of_string v with
        | Some x -> x
        | None -> invalid_arg (Printf.sprintf "UCP_FAULT: bad %s argument %S" name v))
      | _ -> invalid_arg (Printf.sprintf "UCP_FAULT: bad %s mode %S" name s)
    in
    if id = "" then invalid_arg (Printf.sprintf "UCP_FAULT: %S: empty case id" entry);
    let prefixed p s = String.length s > String.length p && String.sub s 0 (String.length p) = p in
    let mode =
      if mode = "raise" then Raise
      else if mode = "stall" || prefixed "stall:" mode then
        Stall (arg "stall" mode 10.0 float_of_string_opt)
      else if mode = "stall-request" || prefixed "stall-request:" mode then
        Stall_request (arg "stall-request" mode 10.0 float_of_string_opt)
      else if mode = "corrupt" || prefixed "corrupt:" mode then
        Corrupt_tau (arg "corrupt" mode 1000 int_of_string_opt)
      else if mode = "corrupt-cert" then Corrupt_cert
      else if mode = "corrupt-refine" then Corrupt_refine
      else if mode = "kill-worker" then Kill_worker
      else if mode = "corrupt-store" then Corrupt_store
      else invalid_arg (Printf.sprintf "UCP_FAULT: unknown mode %S" mode)
    in
    (id, mode)

let load_env () =
  match Sys.getenv_opt "UCP_FAULT" with
  | None | Some "" -> ()
  | Some spec ->
    List.iter
      (fun entry ->
        if entry <> "" then
          let id, mode = parse_entry (String.trim entry) in
          set id mode)
      (String.split_on_char ',' spec)

let corrupt_cert id = match find id with Some Corrupt_cert -> true | _ -> false

(* one-shot: the unsound reclassification is injected into a single
   evaluation; once the audit has caught it, a retry of the same case
   refines honestly *)
let corrupt_refine id =
  take_if id (function Corrupt_refine -> true | _ -> false) <> None

let corrupt_store id =
  take_if id (function Corrupt_store -> true | _ -> false) <> None

let stall_request id =
  match take_if id (function Stall_request _ -> true | _ -> false) with
  | Some (Stall_request secs) -> Some secs
  | Some _ | None -> None

let busy_wait ?deadline secs =
  let t0 = Ucp_util.Clock.now_s () in
  while Ucp_util.Clock.now_s () -. t0 < secs do
    Deadline.check deadline;
    Unix.sleepf 0.002
  done

let apply_pre ?deadline id =
  match find id with
  | None | Some (Corrupt_tau _) | Some Corrupt_cert | Some Corrupt_refine
  | Some Corrupt_store
  | Some (Stall_request _) ->
    ()
  | Some Raise -> raise (Injected id)
  | Some (Stall secs) -> busy_wait ?deadline secs
  | Some Kill_worker ->
    (* one-shot: the domain running this case dies; a retry of the same
       case (pool respawn + client retry) must then succeed *)
    ignore (take_if id (function Kill_worker -> true | _ -> false));
    raise (Killed_worker id)

let corrupt id (r : Experiments.record) =
  match find id with
  | Some (Corrupt_tau extra) ->
    {
      r with
      Experiments.optimized =
        { r.Experiments.optimized with Pipeline.tau = r.Experiments.optimized.Pipeline.tau + extra };
    }
  | _ -> r
