module Config = Ucp_cache.Config
module Tech = Ucp_energy.Tech
module Stats = Ucp_util.Stats

type record = {
  program_name : string;
  config_id : string;
  config : Config.t;
  tech : Tech.t;
  policy : Ucp_policy.id;
  original : Pipeline.measurement;
  optimized : Pipeline.measurement;
  prefetches : int;
  rejected : int;
  audit : Pipeline.audit;
}

let default_configs = Config.paper_configs

let quick_configs =
  List.filter
    (fun (_, c) ->
      List.mem c.Config.capacity [ 256; 1024; 4096 ] && c.Config.assoc >= 2)
    Config.paper_configs

type case = {
  case_program_name : string;
  case_program : Ucp_isa.Program.t;
  case_config_id : string;
  case_config : Config.t;
  case_tech : Tech.t;
  case_policy : Ucp_policy.id;
}

(* The stable identity of a use case across runs: suite name, Table-2
   config id, technology label and replacement policy.  Checkpoint
   journals and fault injection key on this string. *)
let case_id c =
  Printf.sprintf "%s:%s:%s:%s" c.case_program_name c.case_config_id
    c.case_tech.Tech.label
    (Ucp_policy.to_string c.case_policy)

(* The policy is the innermost axis, so an LRU-only grid enumerates in
   exactly the seed's order. *)
let cases ?(policies = [ Ucp_policy.Lru ]) ~programs ~configs ~techs () =
  Array.of_list
    (List.concat_map
       (fun (case_program_name, case_program) ->
         List.concat_map
           (fun (case_config_id, case_config) ->
             List.concat_map
               (fun case_tech ->
                 List.map
                   (fun case_policy ->
                     {
                       case_program_name;
                       case_program;
                       case_config_id;
                       case_config;
                       case_tech;
                       case_policy;
                     })
                   policies)
               techs)
           configs)
       programs)

let model_table configs techs =
  let tbl = Hashtbl.create 97 in
  List.iter
    (fun (_, config) ->
      List.iter
        (fun tech ->
          if not (Hashtbl.mem tbl (config, tech)) then
            Hashtbl.add tbl (config, tech) (Pipeline.model config tech))
        techs)
    configs;
  tbl

(* The cache-aware analysis of an *original* program depends only on
   (program, configuration, policy) — never on the CACTI timing model —
   so the two technology nodes of the grid share one fixpoint.  The
   memo is a plain mutex-guarded table: a lookup miss computes outside
   the lock (two workers may race to the same key and duplicate one
   fixpoint, but never serialize multi-second analyses behind a
   lock). *)
module Analysis_memo = struct
  type t = {
    mutex : Mutex.t;
    table : (string, Ucp_wcet.Analysis.t) Hashtbl.t;
  }

  let create () = { mutex = Mutex.create (); table = Hashtbl.create 97 }

  let key c =
    Printf.sprintf "%s:%s:%s" c.case_program_name c.case_config_id
      (Ucp_policy.to_string c.case_policy)

  let find memo k =
    Mutex.lock memo.mutex;
    let r = Hashtbl.find_opt memo.table k in
    Mutex.unlock memo.mutex;
    r

  let add memo k a =
    Mutex.lock memo.mutex;
    if not (Hashtbl.mem memo.table k) then Hashtbl.add memo.table k a;
    Mutex.unlock memo.mutex
end

let memoized_analysis ?deadline memo c =
  let k = Analysis_memo.key c in
  match Analysis_memo.find memo k with
  | Some a -> a
  | None ->
    let a =
      Pipeline.stage "analysis" (fun () ->
          Ucp_wcet.Wcet.analyze ?deadline ~with_may:true ~policy:c.case_policy
            c.case_program c.case_config)
    in
    Analysis_memo.add memo k a;
    a

let record_of c (cmp : Pipeline.comparison) =
  {
    program_name = c.case_program_name;
    config_id = c.case_config_id;
    config = c.case_config;
    tech = c.case_tech;
    policy = c.case_policy;
    original = cmp.Pipeline.original;
    optimized = cmp.Pipeline.optimized;
    prefetches = cmp.Pipeline.prefetches;
    rejected = cmp.Pipeline.rejected;
    audit = cmp.Pipeline.audit;
  }

let run_case ?deadline ?memo ?audit ?corrupt_cert ?refine ?corrupt_refine
    ~model c =
  let analysis0 =
    Option.map (fun memo -> memoized_analysis ?deadline memo c) memo
  in
  record_of c
    (Pipeline.compare_optimized ?deadline ~model ~policy:c.case_policy
       ?analysis0 ?audit ?corrupt_cert ?refine ?corrupt_refine c.case_program
       c.case_config c.case_tech)

(* Defense in depth for the paper's central claims (Theorem 1,
   Supplement S.2): cross-check each finished record against the
   invariants the analysis promises.  A violation means a bug somewhere
   in the pipeline (or an injected fault) — the sweep demotes the
   record to a structured [Invariant_violation] instead of silently
   reporting unsound numbers. *)
let check_invariants r =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if r.optimized.Pipeline.tau > r.original.Pipeline.tau then
    add "Theorem 1 violated: optimized tau %d > original tau %d"
      r.optimized.Pipeline.tau r.original.Pipeline.tau;
  let side label (m : Pipeline.measurement) =
    if m.Pipeline.acet > m.Pipeline.tau then
      add "%s: simulated ACET %d exceeds the WCET bound %d" label m.Pipeline.acet
        m.Pipeline.tau;
    if m.Pipeline.demand_misses > m.Pipeline.wcet_miss_bound then
      add "%s: simulated demand misses %d exceed the analysis bound %d" label
        m.Pipeline.demand_misses m.Pipeline.wcet_miss_bound;
    (* refined bounds are tightenings, never relaxations: they must
       stay above the concrete execution and below the unrefined
       figures (the digest audit catches tampering deterministically;
       these clauses catch it dynamically on un-audited sweeps) *)
    match m.Pipeline.refine with
    | None -> ()
    | Some s ->
      let open Ucp_refine.Explore in
      if s.s_tau > m.Pipeline.tau then
        add "%s: refined tau %d exceeds the unrefined bound %d" label s.s_tau
          m.Pipeline.tau;
      if m.Pipeline.acet > s.s_tau then
        add "%s: simulated ACET %d exceeds the refined WCET bound %d" label
          m.Pipeline.acet s.s_tau;
      if m.Pipeline.demand_misses > s.s_miss_bound then
        add "%s: simulated demand misses %d exceed the refined bound %d" label
          m.Pipeline.demand_misses s.s_miss_bound;
      (match s.s_quant with
      | Some q when m.Pipeline.demand_misses > q ->
        add "%s: simulated demand misses %d exceed the quantitative bound %d"
          label m.Pipeline.demand_misses q
      | _ -> ())
  in
  side "original" r.original;
  side "optimized" r.optimized;
  match List.rev !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " ps)

let sweep ?(programs = Ucp_workloads.Suite.all) ?(configs = default_configs)
    ?(techs = Tech.all) ?policies ?(refine = Ucp_refine.Mode.Nc)
    ?(progress = fun _ -> ()) () =
  let models = model_table configs techs in
  let last = ref None in
  Array.to_list
    (Array.map
       (fun c ->
         if !last <> Some c.case_program_name then begin
           last := Some c.case_program_name;
           progress c.case_program_name
         end;
         run_case ~refine
           ~model:(Hashtbl.find models (c.case_config, c.case_tech))
           c)
       (cases ?policies ~programs ~configs ~techs ()))

let capacities records =
  List.sort_uniq compare (List.map (fun r -> r.config.Config.capacity) records)

let by_capacity records cap =
  List.filter (fun r -> r.config.Config.capacity = cap) records

(* A zero denominator makes the ratio meaningless; returning a neutral
   1.0 would silently fold the degenerate case into the averages, so
   the aggregations drop it from the mean and surface a count instead. *)
let ratio num den = if den = 0 then None else Some (float_of_int num /. float_of_int den)

let fratio num den = if den = 0.0 then None else Some (num /. den)

(* [mean_ratios f rs] averages the defined ratios and counts the
   degenerate (zero-denominator) ones it had to drop. *)
let mean_ratios f rs =
  let defined = List.filter_map f rs in
  let mean = match defined with [] -> 1.0 | xs -> Stats.mean xs in
  (mean, List.length rs - List.length defined)

type size_row = {
  capacity : int;
  acet_improvement : float;
  energy_improvement : float;
  wcet_improvement : float;
  cases : int;
  degenerate : int;
}

let figure3 records =
  List.map
    (fun capacity ->
      let rs = by_capacity records capacity in
      let improvement f =
        let m, deg = mean_ratios f rs in
        (1.0 -. m, deg)
      in
      let acet, deg_a =
        improvement (fun r -> ratio r.optimized.Pipeline.acet r.original.Pipeline.acet)
      in
      let energy, deg_e =
        improvement (fun r ->
            fratio r.optimized.Pipeline.energy_pj r.original.Pipeline.energy_pj)
      in
      let wcet, deg_w =
        improvement (fun r -> ratio r.optimized.Pipeline.tau r.original.Pipeline.tau)
      in
      {
        capacity;
        acet_improvement = acet;
        energy_improvement = energy;
        wcet_improvement = wcet;
        cases = List.length rs;
        degenerate = deg_a + deg_e + deg_w;
      })
    (capacities records)

type miss_row = {
  capacity : int;
  miss_before : float;
  miss_after : float;
  cases : int;
}

let figure4 records =
  List.map
    (fun capacity ->
      let rs = by_capacity records capacity in
      {
        capacity;
        miss_before = Stats.mean (List.map (fun r -> r.original.Pipeline.miss_rate) rs);
        miss_after = Stats.mean (List.map (fun r -> r.optimized.Pipeline.miss_rate) rs);
        cases = List.length rs;
      })
    (capacities records)

type downsize_row = {
  capacity : int;
  factor : int;
  acet_ratio : float;
  energy_ratio : float;
  wcet_ratio : float;
  cases : int;
  degenerate : int;
}

(* Join each record against the sweep record of the same program,
   technology, associativity and block size whose capacity is
   [capacity / factor]: the optimized program built *for the smaller
   cache* runs there, the original runs on the full-size cache.  The
   join is served by a hash index on the full geometry key — the old
   per-record list scan made the figure O(n²) in sweep size. *)
let figure5 records =
  let index = Hashtbl.create 512 in
  List.iter
    (fun r ->
      let key =
        ( r.program_name,
          r.tech.Tech.node,
          r.config.Config.assoc,
          r.config.Config.block_bytes,
          r.config.Config.capacity )
      in
      (* keep the first record per key, like the list scan it replaces *)
      if not (Hashtbl.mem index key) then Hashtbl.add index key r)
    records;
  let find_small r factor =
    if r.config.Config.capacity mod factor <> 0 then None
    else
      Hashtbl.find_opt index
        ( r.program_name,
          r.tech.Tech.node,
          r.config.Config.assoc,
          r.config.Config.block_bytes,
          r.config.Config.capacity / factor )
  in
  List.concat_map
    (fun factor ->
      List.filter_map
        (fun capacity ->
          let rs = by_capacity records capacity in
          let pairs = List.filter_map (fun r -> Option.map (fun s -> (r, s)) (find_small r factor)) rs in
          if pairs = [] then None
          else begin
            let acet, deg_a =
              mean_ratios
                (fun (r, s) -> ratio s.optimized.Pipeline.acet r.original.Pipeline.acet)
                pairs
            in
            let energy, deg_e =
              mean_ratios
                (fun (r, s) ->
                  fratio s.optimized.Pipeline.energy_pj r.original.Pipeline.energy_pj)
                pairs
            in
            let wcet, deg_w =
              mean_ratios
                (fun (r, s) -> ratio s.optimized.Pipeline.tau r.original.Pipeline.tau)
                pairs
            in
            Some
              {
                capacity;
                factor;
                acet_ratio = acet;
                energy_ratio = energy;
                wcet_ratio = wcet;
                cases = List.length pairs;
                degenerate = deg_a + deg_e + deg_w;
              }
          end)
        (capacities records))
    [ 2; 4 ]

type wcet_scatter = {
  ratios : (string * string * float) list;
  summary : Stats.summary;
  all_non_increasing : bool;
  degenerate : int;
}

let figure7 records =
  let at32 = List.filter (fun r -> r.tech.Tech.node = Tech.Nm32) records in
  let ratios =
    List.filter_map
      (fun r ->
        Option.map
          (fun v -> (r.program_name, r.config_id, v))
          (ratio r.optimized.Pipeline.tau r.original.Pipeline.tau))
      at32
  in
  let values = List.map (fun (_, _, v) -> v) ratios in
  {
    ratios;
    summary = Stats.summarize values;
    all_non_increasing = List.for_all (fun v -> v <= 1.0 +. 1e-9) values;
    degenerate = List.length at32 - List.length ratios;
  }

type exec_row = {
  capacity : int;
  exec_ratio : float;
  max_ratio : float;
  cases : int;
  degenerate : int;
}

let figure8 records =
  List.map
    (fun capacity ->
      let rs = by_capacity records capacity in
      let ratios =
        List.filter_map
          (fun r -> ratio r.optimized.Pipeline.executed r.original.Pipeline.executed)
          rs
      in
      {
        capacity;
        exec_ratio = (match ratios with [] -> 1.0 | xs -> Stats.mean xs);
        max_ratio = (match ratios with [] -> 1.0 | xs -> Stats.maximum xs);
        cases = List.length rs;
        degenerate = List.length rs - List.length ratios;
      })
    (capacities records)

type policy_row = {
  row_policy : Ucp_policy.id;
  row_cases : int;
  row_prefetches : int;  (** accepted insertions summed over the cases *)
  row_ah : int;  (** original-program slots classified always-hit *)
  row_am : int;
  row_nc : int;
  row_ah_opt : int;  (** optimized-program counterparts *)
  row_am_opt : int;
  row_nc_opt : int;
}

(* Per-policy classification-precision counters, summed over the static
   slots of every record's expanded graph.  Rows follow
   [Ucp_policy.all] order; policies absent from the records yield no
   row. *)
let policy_precision records =
  List.filter_map
    (fun p ->
      let rs = List.filter (fun r -> r.policy = p) records in
      if rs = [] then None
      else
        let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
        Some
          {
            row_policy = p;
            row_cases = List.length rs;
            row_prefetches = sum (fun r -> r.prefetches);
            row_ah = sum (fun r -> r.original.Pipeline.ah);
            row_am = sum (fun r -> r.original.Pipeline.am);
            row_nc = sum (fun r -> r.original.Pipeline.nc);
            row_ah_opt = sum (fun r -> r.optimized.Pipeline.ah);
            row_am_opt = sum (fun r -> r.optimized.Pipeline.am);
            row_nc_opt = sum (fun r -> r.optimized.Pipeline.nc);
          })
    Ucp_policy.all

type refine_row = {
  rr_policy : Ucp_policy.id;
  rr_cases : int;  (** records whose original side carries a summary *)
  rr_nc_before : int;
  rr_nc_after : int;
  rr_ah_gained : int;
  rr_am_gained : int;
  rr_tau : int;  (** sum of unrefined original taus over [rr_cases] *)
  rr_tau_refined : int;  (** sum of refined original taus *)
  rr_quant_cases : int;  (** cases carrying a quantitative miss bound *)
  rr_budget_hits : int;  (** cases where the exploration hit its budget *)
}

(* Per-policy refinement-precision counters, over the original side of
   every record that carries a refine summary (records measured with
   refinement off contribute nothing).  Rows follow [Ucp_policy.all]
   order. *)
let refine_precision records =
  List.filter_map
    (fun p ->
      let rs =
        List.filter_map
          (fun r ->
            if r.policy = p then
              Option.map
                (fun s -> (r.original.Pipeline.tau, s))
                r.original.Pipeline.refine
            else None)
          records
      in
      if rs = [] then None
      else
        let sum f = List.fold_left (fun acc x -> acc + f x) 0 rs in
        let open Ucp_refine.Explore in
        Some
          {
            rr_policy = p;
            rr_cases = List.length rs;
            rr_nc_before = sum (fun (_, s) -> s.s_nc_before);
            rr_nc_after = sum (fun (_, s) -> s.s_nc_after);
            rr_ah_gained = sum (fun (_, s) -> s.s_ah_gained);
            rr_am_gained = sum (fun (_, s) -> s.s_am_gained);
            rr_tau = sum fst;
            rr_tau_refined = sum (fun (_, s) -> s.s_tau);
            rr_quant_cases =
              sum (fun (_, s) -> if s.s_quant <> None then 1 else 0);
            rr_budget_hits = sum (fun (_, s) -> if s.s_budget_hit then 1 else 0);
          })
    Ucp_policy.all

let table1 () =
  List.map
    (fun (name, program) ->
      (Ucp_workloads.Suite.paper_id name, name, Ucp_isa.Program.total_slots program))
    Ucp_workloads.Suite.all

let table2 () = Config.paper_configs
