(* Request-scoped trace context: deterministic 64-bit ids plus an
   ambient (execution-scoped) binding.

   Ids are derived with SplitMix64 so a client seeded with [--seed N]
   assigns the same trace id to the same request on every run — the
   property the CI byte-compares access logs on.  The ambient binding
   is keyed by (domain, thread): daemon connection handlers are
   systhreads sharing domain 0's DLS, so plain [Domain.DLS] would leak
   one request's context into another.  The table is touched once per
   [with_ctx] / [current], never on an un-instrumented path. *)

type t = { trace_id : int64; span_id : int64 }

(* ------------------------------------------------------------------ *)
(* deterministic id derivation (SplitMix64 finalizer) *)

let golden = 0x9e3779b97f4a7c15L

let mix z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* id 0 is reserved as "absent" in a few textual contexts; remap it *)
let nonzero z = if Int64.equal z 0L then golden else z

let derive_id ~seed ~index =
  nonzero
    (mix (Int64.add (Int64.mul (Int64.of_int seed) golden) (Int64.of_int index)))

let root trace_id = { trace_id; span_id = mix trace_id }
let derive ~seed ~index = root (derive_id ~seed ~index)
let child c = { c with span_id = mix (Int64.logxor c.trace_id (mix c.span_id)) }

(* ------------------------------------------------------------------ *)
(* textual form: fixed-width lowercase hex, 16 chars *)

let to_hex id = Printf.sprintf "%016Lx" id

let of_hex s =
  let ok =
    String.length s = 16
    && String.for_all
         (fun ch -> (ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f'))
         s
  in
  if not ok then None
  else
    (* parse in two halves so the top bit never overflows of_string *)
    let half sub = Int64.of_string ("0x" ^ sub) in
    let hi = half (String.sub s 0 8) and lo = half (String.sub s 8 8) in
    Some (Int64.logor (Int64.shift_left hi 32) lo)

let trace_hex c = to_hex c.trace_id
let span_hex c = to_hex c.span_id

(* ------------------------------------------------------------------ *)
(* ambient context, keyed by the executing (domain, thread) *)

let ambient : (int * int, t) Hashtbl.t = Hashtbl.create 64
let amutex = Mutex.create ()
let self_key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

let current () =
  Mutex.lock amutex;
  let c = Hashtbl.find_opt ambient (self_key ()) in
  Mutex.unlock amutex;
  c

let with_ctx c f =
  let k = self_key () in
  Mutex.lock amutex;
  let prev = Hashtbl.find_opt ambient k in
  Hashtbl.replace ambient k c;
  Mutex.unlock amutex;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock amutex;
      (match prev with
      | Some p -> Hashtbl.replace ambient k p
      | None -> Hashtbl.remove ambient k);
      Mutex.unlock amutex)
    f
