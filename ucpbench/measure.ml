(* Clock, order statistics, host-speed probes and the result every
   workload run returns. *)

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* nearest-rank, as Ucp_util.Stats.percentile, but 0 on no samples so a
   metric with nothing to measure stays a valid JSON number *)
let percentile p = function [] -> 0.0 | xs -> Ucp_util.Stats.percentile p xs

(* The middle value, or the mean of the two middle values.  Used over
   set-ups and passes, whose count varies between runs: the
   nearest-rank median of an even count is the lower middle value, so
   it would measure 2 samples with a minimum and 3 with a median. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* VmHWM: a process's peak resident set size, in MiB *)
let peak_rss_mb ?(pid = "self") () =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line -> (
          match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
          | kb -> float_of_int kb /. 1024.0
          | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> scan ())
        | exception End_of_file -> failwith ("no VmHWM line for process " ^ pid)
      in
      scan ())

(* {2 Host speed}

   On a shared 2-vCPU VM the same code runs up to 1.9 times slower for
   anything from a second to minutes at a time (a fixed 0.3 s kernel
   took 0.25-0.52 s within three minutes on one vCPU), and the two
   vCPUs slow down independently of each other (correlation 0.2).  Raw
   times of identical work then differ by 15-30 % between runs, more
   than any bound worth keeping.

   Each run therefore times a fixed reference kernel every
   [probe_every] seconds on the same CPU, between operations and
   outside every timed interval, and reports each operation's time
   scaled by [nominal_kernel_s] over the kernel time interpolated at the
   operation's midpoint: the time the operation would take on a host
   where the kernel takes the nominal time, about what it takes here
   when the VM is quiet.  Over 23-39 passes of each batch workload,
   pass time followed mean kernel time with an elasticity of 0.92-1.06,
   and scaling cut the pass-to-pass spread from 15-18 % to 4-6 %.

   The kernel allocates, sorts and hashes like the analysis does, with
   the standard library only, in a helper process of its own
   ([ucpbench.exe kernel]): neither a change to the repository's
   libraries nor the heap the measured work leaves behind can move it. *)

let nominal_kernel_s = 0.018
let probe_every = 0.4

let kernel () =
  let t0 = now () in
  let x = ref 88172645463325252 in
  let l =
    List.init 40_000 (fun _ ->
        x := !x lxor (!x lsl 13);
        x := !x lxor (!x lsr 7);
        x := !x lxor (!x lsl 17);
        !x land 0xFFFFF)
  in
  let h = Hashtbl.create 4096 in
  List.iter (fun v -> Hashtbl.replace h (v land 0xFFFF) v) (List.sort compare l);
  now () -. t0

(* [ucpbench.exe kernel]: after a warm-up, one timed kernel per input
   line, its seconds printed one per line *)
let kernel_main () =
  ignore (kernel ());
  try
    while true do
      ignore (input_line stdin);
      Printf.printf "%.9f\n%!" (kernel ())
    done
  with End_of_file -> ()

type host = {
  ic : in_channel;
  oc : out_channel;
  mutable probes : (float * float) list;  (** (midpoint, kernel seconds), newest first *)
  mutable last_probe : float;
}

let probe h =
  let t0 = now () in
  output_char h.oc '\n';
  flush h.oc;
  let k = float_of_string (input_line h.ic) in
  let t1 = now () in
  h.probes <- ((t0 +. t1) /. 2.0, k) :: h.probes;
  h.last_probe <- t1

let maybe_probe h = if now () -. h.last_probe >= probe_every then probe h

let start_host () =
  let ic, oc = Unix.open_process_args Sys.executable_name [| Sys.executable_name; "kernel" |] in
  let h = { ic; oc; probes = []; last_probe = neg_infinity } in
  probe h;
  h

(* Close the helper's input, so it exits, and wait for it.  A final
   probe first brackets the last operation. *)
let stop_host h =
  probe h;
  ignore (Unix.close_process (h.ic, h.oc))

(* the kernel time at [t], interpolated between the probes around it *)
let kernel_at h =
  let probes = Array.of_list (List.rev h.probes) in
  let n = Array.length probes in
  fun t ->
    let rec find lo hi =
      (* invariant: fst probes.(lo) <= t < fst probes.(hi) *)
      if hi - lo <= 1 then lo else
        let mid = (lo + hi) / 2 in
        if fst probes.(mid) <= t then find mid hi else find lo mid
    in
    if t <= fst probes.(0) then snd probes.(0)
    else if t >= fst probes.(n - 1) then snd probes.(n - 1)
    else
      let i = find 0 (n - 1) in
      let (t0, k0), (t1, k1) = (probes.(i), probes.(i + 1)) in
      k0 +. ((k1 -. k0) *. (t -. t0) /. (t1 -. t0))

type sample = { t0 : float; dt : float }

let raw s = s.dt

(* the summed [time] of [samples] *)
let total time samples = Array.fold_left (fun acc s -> acc +. time s) 0.0 samples

let timed h f =
  let t0 = now () in
  f ();
  let s = { t0; dt = now () -. t0 } in
  maybe_probe h;
  s

(* Run [f] with a probed host, and return its result, the function that
   gives a sample's duration at nominal host speed, and a note on the
   probes. *)
let probed f =
  let h = start_host () in
  let r = Fun.protect ~finally:(fun () -> stop_host h) (fun () -> f h) in
  let k = kernel_at h in
  let ks = List.map snd h.probes in
  ( r,
    (fun s -> s.dt *. nominal_kernel_s /. k (s.t0 +. (s.dt /. 2.0))),
    Printf.sprintf "host: %d kernel probes, median %.6f s, min %.6f s (nominal %g s)"
      (List.length ks) (median ks) (List.fold_left Float.min infinity ks) nominal_kernel_s )

(* Passes repeat while the next one is expected to end within the
   budget, judged by the previous pass, and at least [min_passes] run.
   Whole passes keep every run's operation mix identical. *)
let passes ?(min_passes = 2) ~seconds f =
  let t0 = now () in
  let rec go n acc =
    let p0 = now () in
    let r = f () in
    let d = now () -. p0 in
    let acc = r :: acc in
    if n + 1 < min_passes || now () -. t0 +. d <= seconds then go (n + 1) acc
    else List.rev acc
  in
  go 0 []

let sum = List.fold_left ( +. ) 0.0
let ms x = 1000.0 *. x

(* the mean of the values ranked from [lo] to [hi] (shares of the count) *)
let band_mean lo hi xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let i = int_of_float (lo *. float_of_int n) in
  let j = max (i + 1) (int_of_float (hi *. float_of_int n)) in
  Ucp_util.Stats.mean (Array.to_list (Array.sub a i (j - i)))

(* The end-to-end timings of [passes] over the same operations.  Each
   operation's time is its mean over the passes; then come operations
   per second of their summed time, and the mean time of the operations
   ranked in the 45-55 % and 85-95 % bands.

   The bands stand in for the nearest-rank median and 90th percentile.
   A batch population is a few hundred cases in clusters of similar
   cost (one program at a few configurations), with gaps between the
   clusters: lru-small's 125th of 140 cases takes 91 ms, its 126th
   115 ms.  With each case's time moving by ~10 % from host noise, the
   single value at a rank jumped between clusters from run to run (an
   interquartile spread of 18 % of the median over ten seeds); the band
   means spread by 2-8 %. *)
let op_metrics (time : sample -> float) passes =
  let n = Array.length (List.hd passes) in
  let ops = List.init n (fun i -> Ucp_util.Stats.mean (List.map (fun p -> time p.(i)) passes)) in
  [
    ("ops_per_s", float_of_int n /. sum ops);
    ("op_p50_band_ms", ms (band_mean 0.45 0.55 ops));
    ("op_p90_band_ms", ms (band_mean 0.85 0.95 ops));
  ]

type result = {
  attempted : int;
  failures : string list;  (** one message per failed operation or check *)
  metrics : (string * float) list;
  as_measured : (string * float) list;
      (** the scaled metrics' values before scaling, printed only *)
  notes : string list;  (** sample counts and other context, printed *)
}
