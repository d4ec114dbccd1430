module Program = Ucp_isa.Program
module Layout = Ucp_isa.Layout
module Branch_model = Ucp_isa.Branch_model
module Concrete = Ucp_cache.Concrete
module Account = Ucp_energy.Account
module Cacti = Ucp_energy.Cacti
module Rng = Ucp_util.Rng

type stats = {
  counts : Account.counts;
  executed : int;
  executed_prefetches : int;
  hw_issued : int;
  late_prefetch_stall_cycles : int;
  miss_rate : float;
}

type state = {
  cache : Concrete.t;
  model : Cacti.t;
  rng : Rng.t;
  in_flight : (int, int) Hashtbl.t;  (* mem block -> ready cycle *)
  branch_counts : int array;  (* block id -> cond executions *)
  mutable cycles : int;
  mutable fetches : int;
  mutable hits : int;
  mutable misses : int;
  mutable prefetch_dram_reads : int;
  mutable prefetch_fills : int;
  mutable executed : int;
  mutable executed_prefetches : int;
  mutable hw_issued : int;
  mutable late_stalls : int;
}

(* Launch a prefetch of [mb] unless it is resident.  The cache line is
   allocated immediately (as an MSHR would), so the concrete content
   evolution matches the abstract semantics, which applies the fill at
   the prefetch point; the data only becomes usable Λ cycles later —
   an earlier demand access stalls for the remainder.  Returns true
   when a DRAM read was started. *)
let issue_prefetch st mb =
  if Concrete.contains st.cache mb then begin
    (* resident target: no memory traffic, but the prefetch still
       refreshes the line's recency (matching the abstract fill) *)
    ignore (Concrete.fill st.cache mb);
    false
  end
  else begin
    ignore (Concrete.fill st.cache mb);
    Hashtbl.replace st.in_flight mb (st.cycles + st.model.Cacti.prefetch_latency);
    st.prefetch_dram_reads <- st.prefetch_dram_reads + 1;
    st.prefetch_fills <- st.prefetch_fills + 1;
    true
  end

(* Fetch the instruction at [addr]'s block: accounts time and energy
   events; returns whether it hit without any stall. *)
let fetch_locked st locked mb =
  st.fetches <- st.fetches + 1;
  if Hashtbl.mem locked mb then begin
    st.hits <- st.hits + 1;
    st.cycles <- st.cycles + st.model.Cacti.hit_cycles;
    true
  end
  else begin
    (* locked caches never allocate: every unlocked access pays DRAM *)
    st.misses <- st.misses + 1;
    st.cycles <- st.cycles + st.model.Cacti.hit_cycles + st.model.Cacti.miss_penalty;
    false
  end

let fetch_demand st mb =
  st.fetches <- st.fetches + 1;
  (* the line's prefetch, if one is in flight: a hit waits for it; on a
     miss the entry is stale, the line was re-evicted before use *)
  let ready =
    if Hashtbl.length st.in_flight = 0 then None else Hashtbl.find_opt st.in_flight mb
  in
  if Option.is_some ready then Hashtbl.remove st.in_flight mb;
  match Concrete.access st.cache mb with
  | Concrete.Hit ->
    (match ready with
    | Some ready ->
      let stall = max 0 (ready - st.cycles) in
      st.cycles <- st.cycles + stall;
      st.late_stalls <- st.late_stalls + stall
    | None -> ());
    st.hits <- st.hits + 1;
    st.cycles <- st.cycles + st.model.Cacti.hit_cycles;
    true
  | Concrete.Miss _ ->
    st.misses <- st.misses + 1;
    st.cycles <- st.cycles + st.model.Cacti.hit_cycles + st.model.Cacti.miss_penalty;
    false

let cond_decision st block model =
  let count = st.branch_counts.(block) in
  st.branch_counts.(block) <- count + 1;
  match model with
  | Branch_model.Always_taken -> true
  | Branch_model.Never_taken -> false
  | Branch_model.Every k -> count mod k < k - 1
  | Branch_model.Bernoulli p -> Rng.bernoulli st.rng p

let run ?(seed = 42) ?(max_steps = 3_000_000) ?(policy = Concrete.Lru) ?hw ?locked
    ?(pinned = []) ?cache_config ?on_fetch ?branch_oracle program config model =
  let layout = Layout.make program ~block_bytes:config.Ucp_cache.Config.block_bytes in
  let cache_config = match cache_config with Some c -> c | None -> config in
  let locked_tbl =
    match locked with
    | None -> None
    | Some blocks ->
      let tbl = Hashtbl.create 16 in
      List.iter (fun mb -> Hashtbl.replace tbl mb ()) blocks;
      Some tbl
  in
  let pinned_tbl = Hashtbl.create 16 in
  List.iter (fun mb -> Hashtbl.replace pinned_tbl mb ()) pinned;
  let any_pinned = Hashtbl.length pinned_tbl > 0 in
  let is_pinned mb = any_pinned && Hashtbl.mem pinned_tbl mb in
  let st =
    {
      cache = Concrete.create ~policy cache_config;
      model;
      rng = Rng.create seed;
      in_flight = Hashtbl.create 8;
      branch_counts = Array.make (Program.block_count program) 0;
      cycles = 0;
      fetches = 0;
      hits = 0;
      misses = 0;
      prefetch_dram_reads = 0;
      prefetch_fills = 0;
      executed = 0;
      executed_prefetches = 0;
      hw_issued = 0;
      late_stalls = 0;
    }
  in
  let fetch st mb =
    match locked_tbl with
    | Some tbl -> fetch_locked st tbl mb
    | None ->
      if is_pinned mb then begin
        (* locked way: unconditional hit, no replacement effect *)
        st.fetches <- st.fetches + 1;
        st.hits <- st.hits + 1;
        st.cycles <- st.cycles + st.model.Cacti.hit_cycles;
        true
      end
      else fetch_demand st mb
  in
  (* Demand fetch of the slot at [(block, pos)], reporting the static
     slot coordinates and the hit/miss verdict to [?on_fetch] (the
     soundness cross-validation probe). *)
  let fetch_at st ~block ~pos mb =
    let hit = fetch st mb in
    (match on_fetch with
    | Some probe -> probe ~block ~pos ~hit
    | None -> ());
    hit
  in
  (* Show the fetch of slot [(block, pos)] to the hardware prefetcher,
     if there is one, and issue what it asks for.  [branch] is the
     taken target and the decision of a conditional. *)
  let hw_observe ~block ~pos ?branch mb hit =
    match hw with
    | None -> ()
    | Some hw ->
      let target_addr, taken =
        match branch with
        | None -> (None, None)
        | Some (target, decision) ->
          ( (try Some (Layout.addr layout ~block:target ~pos:0)
             with Invalid_argument _ -> None),
            Some decision )
      in
      List.iter
        (fun mb ->
          if (not (is_pinned mb)) && issue_prefetch st mb then
            st.hw_issued <- st.hw_issued + 1)
        (Hw_prefetch.observe hw
           {
             Hw_prefetch.mem_block = mb;
             hit;
             is_branch = Option.is_some branch;
             branch_addr = Layout.addr layout ~block ~pos;
             target_addr;
             taken;
           })
  in
  let rec exec_block block =
    if st.executed > max_steps then
      failwith
        (Printf.sprintf "Simulator.run: %s exceeded %d instructions"
           (Program.name program) max_steps);
    let mem_blocks = Layout.slot_mem_blocks layout block in
    let targets = Layout.prefetch_targets layout block in
    let b = Program.block program block in
    let body_len = Array.length b.Program.body in
    (* body slots *)
    for pos = 0 to body_len - 1 do
      let mb = mem_blocks.(pos) in
      let hit = fetch_at st ~block ~pos mb in
      st.executed <- st.executed + 1;
      (match targets.(pos) with
      | Layout.No_target -> ()
      | Layout.Target target ->
        st.executed_prefetches <- st.executed_prefetches + 1;
        if locked_tbl = None && not (is_pinned target) then
          ignore (issue_prefetch st target)
      | Layout.Dangling _ ->
        st.executed_prefetches <- st.executed_prefetches + 1;
        if locked_tbl = None then failwith "Simulator.run: dangling prefetch target");
      hw_observe ~block ~pos mb hit
    done;
    (* terminator *)
    match b.Program.term with
    | Program.Fallthrough target -> exec_block target
    | Program.Jump { target; _ } ->
      let mb = mem_blocks.(body_len) in
      let hit = fetch_at st ~block ~pos:body_len mb in
      st.executed <- st.executed + 1;
      hw_observe ~block ~pos:body_len mb hit;
      exec_block target
    | Program.Return _ ->
      let _hit = fetch_at st ~block ~pos:body_len mem_blocks.(body_len) in
      st.executed <- st.executed + 1
    | Program.Cond { taken; fallthrough; model = bm; _ } ->
      let mb = mem_blocks.(body_len) in
      let hit = fetch_at st ~block ~pos:body_len mb in
      st.executed <- st.executed + 1;
      let decision =
        match branch_oracle with
        | Some oracle -> oracle block
        | None -> cond_decision st block bm
      in
      hw_observe ~block ~pos:body_len ~branch:(taken, decision) mb hit;
      exec_block (if decision then taken else fallthrough)
  in
  exec_block (Program.entry program);
  if Ucp_obs.Metrics.enabled () then begin
    (* label value quoted so the registry name is already valid
       Prometheus exposition syntax when Expo renders it *)
    let label = Printf.sprintf "{policy=%S}" (Ucp_policy.to_string policy) in
    Ucp_obs.Metrics.add
      (Ucp_obs.Metrics.counter ("cache_fetches_total" ^ label))
      st.fetches;
    Ucp_obs.Metrics.add
      (Ucp_obs.Metrics.counter ("cache_misses_total" ^ label))
      st.misses
  end;
  let counts =
    {
      Account.fetches = st.fetches;
      hits = st.hits;
      misses = st.misses;
      prefetch_dram_reads = st.prefetch_dram_reads;
      prefetch_fills = st.prefetch_fills;
      cycles = st.cycles;
    }
  in
  {
    counts;
    executed = st.executed;
    executed_prefetches = st.executed_prefetches;
    hw_issued = st.hw_issued;
    late_prefetch_stall_cycles = st.late_stalls;
    miss_rate =
      (if st.fetches = 0 then 0.0
       else float_of_int st.misses /. float_of_int st.fetches);
  }

let acet stats = stats.counts.Account.cycles
