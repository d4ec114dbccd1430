module Program = Ucp_isa.Program
module Layout = Ucp_isa.Layout
module Branch_model = Ucp_isa.Branch_model
module Concrete = Ucp_cache.Concrete
module Account = Ucp_energy.Account
module Cacti = Ucp_energy.Cacti
module Rng = Ucp_util.Rng

exception Step_limit_exceeded of { program : string; limit : int }

let () =
  Printexc.register_printer (function
    | Step_limit_exceeded { program; limit } ->
      Some
        (Printf.sprintf "Simulator.Step_limit_exceeded: %s exceeded %d instructions"
           program limit)
    | _ -> None)

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
  mutable last_block : int;
      (* memory block of the last demand access, -1 once a fill may
         have changed the cache since *)
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

(* A prefetch of [mb] is one cache access (DESIGN.md §23).  A resident
   target costs no memory traffic, though the access still refreshes
   its line as a hit would.  An absent one is allocated immediately (as
   an MSHR would), so the concrete content evolution matches the
   abstract semantics, which applies the fill at the prefetch point;
   the data only becomes usable Λ cycles later — an earlier demand
   access stalls for the remainder.  Returns true when a DRAM read was
   started.  Every fill forgets the last demand access's block: the
   fill may have reordered or evicted it. *)
let issue_prefetch st mb =
  st.last_block <- -1;
  match Concrete.access st.cache mb with
  | Concrete.Hit -> false
  | Concrete.Miss _ ->
    Hashtbl.replace st.in_flight mb (st.cycles + st.model.Cacti.prefetch_latency);
    st.prefetch_dram_reads <- st.prefetch_dram_reads + 1;
    st.prefetch_fills <- st.prefetch_fills + 1;
    true

(* Account [n] demand fetches with the verdict [hit]. *)
let charge st n hit =
  st.fetches <- st.fetches + n;
  if hit then begin
    st.hits <- st.hits + n;
    st.cycles <- st.cycles + (n * st.model.Cacti.hit_cycles)
  end
  else begin
    st.misses <- st.misses + n;
    st.cycles <- st.cycles + (n * (st.model.Cacti.hit_cycles + st.model.Cacti.miss_penalty))
  end

(* A demand access through the cache; returns whether it hit.  The
   line's prefetch, if one is in flight, is taken out: a hit waits for
   it; on a miss the entry is stale, the line was re-evicted before
   use. *)
let access_cache st mb =
  st.last_block <- mb;
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
    true
  | Concrete.Miss _ -> false

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
      last_block = -1;
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
  (* The verdict of a demand fetch of [mb].  A locked cache never
     allocates: a locked block hits, every other fetch pays DRAM.  A
     pinned block (a locked way) hits with no replacement effect.  A
     re-access of [st.last_block] is a hit that leaves the cache as it
     is (the re-access obligation of [Ucp_policy.POLICY.cset_access]),
     and the access before it already took the line's in-flight entry
     out, so it skips the cache (DESIGN.md §22). *)
  let fetch mb =
    match locked_tbl with
    | Some tbl -> Hashtbl.mem tbl mb
    | None -> is_pinned mb || mb = st.last_block || access_cache st mb
  in
  (* A fetch that re-reads the block of the fetch just before it, with
     no fill between, hits in a plain cache and under [~pinned] (by the
     rule above), and repeats that fetch's verdict under [~locked]. *)
  let reread_hits = Option.is_none locked_tbl in
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
  (* The last slot of each run of every block (DESIGN.md §27).  A run
     is a maximal span of slots in one memory block of which only the
     last may prefetch, so every slot after its first re-reads the
     block of the slot before it, with no fill between.  A hardware
     prefetcher observes every fetch and may fill after any of them:
     under one, each slot is its own run. *)
  let runs =
    Array.init (Program.block_count program) (fun block ->
        let mem_blocks = Layout.slot_mem_blocks layout block in
        let targets = Layout.prefetch_targets layout block in
        let n = Array.length mem_blocks in
        let ends pos =
          pos = n - 1
          || Option.is_some hw
          || mem_blocks.(pos + 1) <> mem_blocks.(pos)
          || match targets.(pos) with Layout.Target _ -> true | Layout.No_target -> false
        in
        let rec collect pos acc =
          if pos < 0 then acc else collect (pos - 1) (if ends pos then pos :: acc else acc)
        in
        Array.of_list (collect (n - 1) []))
  in
  let rec exec_block block =
    if st.executed > max_steps then
      raise (Step_limit_exceeded { program = Program.name program; limit = max_steps });
    let mem_blocks = Layout.slot_mem_blocks layout block in
    let targets = Layout.prefetch_targets layout block in
    let b = Program.block program block in
    let body_len = Array.length b.Program.body in
    (* One step per run: its first slot is fetched, its [k] re-reads
       are charged at once.  [?on_fetch] still sees every slot, in
       order.  [hit] ends as the last run's first verdict, which under
       a hardware prefetcher is the terminator's. *)
    let ends = runs.(block) in
    let first = ref 0 and hit = ref false in
    for r = 0 to Array.length ends - 1 do
      let last = ends.(r) in
      let mb = mem_blocks.(!first) and k = last - !first in
      let h = fetch mb in
      let again = h || reread_hits in
      charge st 1 h;
      charge st k again;
      (match on_fetch with
      | None -> ()
      | Some probe ->
        probe ~block ~pos:!first ~hit:h;
        for pos = !first + 1 to last do
          probe ~block ~pos ~hit:again
        done);
      st.executed <- st.executed + k + 1;
      if last < body_len then begin
        (match targets.(last) with
        | Layout.No_target -> ()
        | Layout.Target target ->
          st.executed_prefetches <- st.executed_prefetches + 1;
          if Option.is_none locked_tbl && not (is_pinned target) then
            ignore (issue_prefetch st target));
        hw_observe ~block ~pos:last mb h
      end;
      hit := h;
      first := last + 1
    done;
    (* the terminator's fetch was its block's last slot *)
    match b.Program.term with
    | Program.Fallthrough target -> exec_block target
    | Program.Jump { target; _ } ->
      hw_observe ~block ~pos:body_len mem_blocks.(body_len) !hit;
      exec_block target
    | Program.Return _ -> ()
    | Program.Cond { taken; fallthrough; model = bm; _ } ->
      let decision =
        match branch_oracle with
        | Some oracle -> oracle block
        | None -> cond_decision st block bm
      in
      hw_observe ~block ~pos:body_len ~branch:(taken, decision) mem_blocks.(body_len) !hit;
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
