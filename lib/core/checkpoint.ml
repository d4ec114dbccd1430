module Config = Ucp_cache.Config
module Tech = Ucp_energy.Tech
module Json = Ucp_util.Json

(* v3: the grid fingerprint covers the refine mode and measurements
   carry the (additive) refine_* fields *)
let format_version = 3

type problem =
  | Unreadable_header
  | Unsupported_version
  | Fingerprint_mismatch of { journal : string; grid : string }
  | Corrupt_line of int

exception Bad_journal of { path : string; problem : problem }

let () =
  Printexc.register_printer (function
    | Bad_journal { path; problem } ->
      let what =
        match problem with
        | Unreadable_header -> "unreadable journal header"
        | Unsupported_version -> "unsupported journal version"
        | Fingerprint_mismatch { journal; grid } ->
          Printf.sprintf
            "sweep fingerprint mismatch (journal %s, grid %s) — the checkpoint \
             belongs to a different suite/config/tech grid"
            journal grid
        | Corrupt_line n -> Printf.sprintf "corrupt journal line %d" n
      in
      Some (Printf.sprintf "Checkpoint.start: %s: %s" path what)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* decoding: a missing or ill-typed field makes the whole line
   unreadable *)

exception Malformed

let need = function Some v -> v | None -> raise Malformed

let field j key = need (Json.member key j)
let int_of j key = need (Json.to_int (field j key))
let float_of j key = need (Json.to_float (field j key))
let str_of j key = need (Json.to_str (field j key))

(* ------------------------------------------------------------------ *)
(* journal lines *)

(* %.17g round-trips any finite double exactly *)
let flt f = Printf.sprintf "%.17g" f

(* the refine fields sit flat and last inside the measurement object
   (written by [Report.refine_json_side ""]); [None] when absent *)
let refine_of_json j : Ucp_refine.Explore.summary option =
  match Json.member "refine_mode" j with
  | None -> None
  | Some mode ->
    let s_mode =
      match Ucp_refine.Mode.of_string (need (Json.to_str mode)) with
      | Ok m -> m
      | Error _ -> raise Malformed
    in
    Some
      {
        Ucp_refine.Explore.s_mode;
        s_nc_before = int_of j "refine_nc_before";
        s_nc_after = int_of j "refine_nc";
        s_ah_gained = int_of j "refine_ah_gained";
        s_am_gained = int_of j "refine_am_gained";
        s_tau = int_of j "refine_tau";
        s_miss_bound = int_of j "refine_miss_bound";
        s_quant =
          (match field j "refine_quant" with
          | Json.Null -> None
          | v -> Some (need (Json.to_int v)));
        s_states = int_of j "refine_states";
        s_budget_hit =
          (match field j "refine_budget_hit" with
          | Json.Bool b -> b
          | _ -> raise Malformed);
        (* additive: absent in journals written before the demotion
           count existed *)
        s_budget_exhausted =
          (match Json.member "refine_budget_exhausted" j with
          | Some v -> need (Json.to_int v)
          | None -> 0);
        s_digest = str_of j "refine_digest";
      }

let measurement_json (m : Pipeline.measurement) =
  Printf.sprintf
    {|{"tau":%d,"acet":%d,"energy_pj":%s,"miss_rate":%s,"executed":%d,"demand_misses":%d,"wcet_miss_bound":%d,"ah":%d,"am":%d,"nc":%d%s}|}
    m.Pipeline.tau m.Pipeline.acet (flt m.Pipeline.energy_pj)
    (flt m.Pipeline.miss_rate) m.Pipeline.executed m.Pipeline.demand_misses
    m.Pipeline.wcet_miss_bound m.Pipeline.ah m.Pipeline.am m.Pipeline.nc
    (Report.refine_json_side "" m.Pipeline.refine)

let measurement_of_json j : Pipeline.measurement =
  {
    Pipeline.tau = int_of j "tau";
    acet = int_of j "acet";
    energy_pj = float_of j "energy_pj";
    miss_rate = float_of j "miss_rate";
    executed = int_of j "executed";
    demand_misses = int_of j "demand_misses";
    wcet_miss_bound = int_of j "wcet_miss_bound";
    ah = int_of j "ah";
    am = int_of j "am";
    nc = int_of j "nc";
    refine = refine_of_json j;
  }

let audit_json (a : Pipeline.audit) =
  match a with
  | Pipeline.Not_audited -> ""
  | Pipeline.Audited { checks; seconds } ->
    Printf.sprintf {|,"audit_checks":%d,"audit_s":%s|} checks (flt seconds)
  | Pipeline.Audit_skipped reason ->
    Printf.sprintf {|,"audit_skipped":%s|} (Report.json_string reason)

(* the audit fields are additive: a line without them is Not_audited *)
let audit_of_json j : Pipeline.audit =
  match Json.member "audit_checks" j with
  | Some checks ->
    let seconds =
      match Json.member "audit_s" j with
      | Some s -> need (Json.to_float s)
      | None -> 0.0
    in
    Pipeline.Audited { checks = need (Json.to_int checks); seconds }
  | None -> (
    match Json.member "audit_skipped" j with
    | Some reason -> Pipeline.Audit_skipped (need (Json.to_str reason))
    | None -> Pipeline.Not_audited)

let record_line ~id (r : Experiments.record) =
  Printf.sprintf
    {|{"case":%s,"program":%s,"config_id":%s,"assoc":%d,"block_bytes":%d,"capacity":%d,"tech":%s,"policy":%s,"prefetches":%d,"rejected":%d%s%s,"original":%s,"optimized":%s}|}
    (Report.json_string id)
    (Report.json_string r.Experiments.program_name)
    (Report.json_string r.Experiments.config_id)
    r.Experiments.config.Config.assoc r.Experiments.config.Config.block_bytes
    r.Experiments.config.Config.capacity
    (Report.json_string r.Experiments.tech.Tech.label)
    (Report.json_string (Ucp_policy.to_string r.Experiments.policy))
    r.Experiments.prefetches r.Experiments.rejected
    (* additive generator provenance, recomputed from the program name
       (so a resume rewrite reproduces it byte for byte) *)
    (Report.gen_json r.Experiments.program_name)
    (audit_json r.Experiments.audit)
    (measurement_json r.Experiments.original)
    (measurement_json r.Experiments.optimized)

let tech_of_label label =
  match List.find_opt (fun t -> t.Tech.label = label) Tech.all with
  | Some t -> t
  | None -> raise Malformed

let policy_of_name name =
  match Ucp_policy.of_string name with Ok p -> p | Error _ -> raise Malformed

let parse_line line =
  match Json.parse line with
  | Error _ -> None
  | Ok j -> (
    try
      let id = str_of j "case" in
      let record =
        {
          Experiments.program_name = str_of j "program";
          config_id = str_of j "config_id";
          config =
            Config.make ~assoc:(int_of j "assoc") ~block_bytes:(int_of j "block_bytes")
              ~capacity:(int_of j "capacity");
          tech = tech_of_label (str_of j "tech");
          policy = policy_of_name (str_of j "policy");
          original = measurement_of_json (field j "original");
          optimized = measurement_of_json (field j "optimized");
          prefetches = int_of j "prefetches";
          rejected = int_of j "rejected";
          audit = audit_of_json j;
        }
      in
      Some (id, record)
    with Malformed | Invalid_argument _ -> None)

(* ------------------------------------------------------------------ *)
(* grid fingerprint *)

let fingerprint ?(policies = [ Ucp_policy.Lru ])
    ?(refine = Ucp_refine.Mode.Off) ~programs ~configs ~techs () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "ucp-checkpoint-v%d\n" format_version);
  List.iter
    (fun (name, p) ->
      Buffer.add_string buf
        (Printf.sprintf "p %s %d\n" name (Ucp_isa.Program.total_slots p)))
    programs;
  List.iter
    (fun (id, (c : Config.t)) ->
      Buffer.add_string buf
        (Printf.sprintf "k %s %d %d %d\n" id c.Config.assoc c.Config.block_bytes
           c.Config.capacity))
    configs;
  List.iter
    (fun (t : Tech.t) -> Buffer.add_string buf (Printf.sprintf "t %s\n" t.Tech.label))
    techs;
  List.iter
    (fun p ->
      Buffer.add_string buf (Printf.sprintf "y %s\n" (Ucp_policy.to_string p)))
    policies;
  Buffer.add_string buf
    (Printf.sprintf "r %s\n" (Ucp_refine.Mode.to_string refine));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let header_line fingerprint =
  Printf.sprintf {|{"ucp_checkpoint":%d,"fingerprint":%s}|} format_version
    (Report.json_string fingerprint)

(* ------------------------------------------------------------------ *)
(* journal lifecycle *)

type t = {
  oc : out_channel;
  lock : Mutex.t;
  loaded : (string, Experiments.record) Hashtbl.t;
}

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let replay path ~fingerprint tbl =
  let bad problem = raise (Bad_journal { path; problem }) in
  match read_lines path with
  | [] | (exception Sys_error _) -> ()
  | header :: rest ->
    (match Json.parse header with
    | Error _ -> bad Unreadable_header
    | Ok j ->
      if Option.bind (Json.member "ucp_checkpoint" j) Json.to_int <> Some format_version
      then bad Unsupported_version;
      let fp =
        Option.value ~default:"" (Option.bind (Json.member "fingerprint" j) Json.to_str)
      in
      if fp <> fingerprint then
        bad (Fingerprint_mismatch { journal = fp; grid = fingerprint }));
    let n = List.length rest in
    List.iteri
      (fun i line ->
        match parse_line line with
        | Some (id, record) -> Hashtbl.replace tbl id record
        | None ->
          (* a torn final line is the expected crash artifact; anything
             malformed earlier means real corruption *)
          if i < n - 1 then bad (Corrupt_line (i + 2)))
      rest

(* durability: [flush] alone hands the bytes to the kernel page cache,
   where a power cut (as opposed to a mere process crash) can still eat
   them — every acknowledged journal write is fsynced to the device.
   The counter exists so a test can pin the sync-before-ack ordering. *)
let synced = Atomic.make 0

let synced_writes () = Atomic.get synced

let fsync_out oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  Atomic.incr synced

(* a rename is only durable once the parent directory's entry is on
   disk; without this fsync the file can vanish across a power cut even
   though the rename "succeeded" *)
let fsync_dir path =
  let dir = Filename.dirname path in
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (* some filesystems refuse fsync on a directory fd; losing the
           belt-and-braces sync there is not an error *)
        try
          Unix.fsync fd;
          Atomic.incr synced
        with Unix.Unix_error _ -> ())

let write_atomic ~path content =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out tmp in
  (match
     output_string oc content;
     fsync_out oc
   with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path;
  fsync_dir path

let start ~path ~fingerprint ~resume =
  let loaded = Hashtbl.create 97 in
  if resume && Sys.file_exists path then replay path ~fingerprint loaded;
  (* the header and what survived replay go to a new file that replaces
     the journal by rename: a crash mid-rewrite leaves the old journal
     whole, and a torn trailing line is dropped instead of appended
     after *)
  let buf = Buffer.create 4096 in
  let add line =
    Buffer.add_string buf line;
    Buffer.add_char buf '\n'
  in
  add (header_line fingerprint);
  Hashtbl.iter (fun id record -> add (record_line ~id record)) loaded;
  write_atomic ~path (Buffer.contents buf);
  let oc = open_out_gen [ Open_wronly; Open_append; Open_text ] 0 path in
  { oc; lock = Mutex.create (); loaded }

let completed t = t.loaded

let record t ~id record =
  let line = record_line ~id record in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      output_string t.oc line;
      output_char t.oc '\n';
      fsync_out t.oc)

let close t = close_out_noerr t.oc
