(* Shared generators and helpers for the test suites. *)

module Dsl = Ucp_workloads.Dsl
module Config = Ucp_cache.Config
module Cacti = Ucp_energy.Cacti

(* A small timing/energy model with a short prefetch latency so tiny
   generated programs still have room for effective prefetches. *)
let tiny_model =
  {
    Cacti.read_pj = 5.0;
    fill_pj = 8.0;
    leak_pj_per_cycle = 2.0;
    dram_read_pj = 100.0;
    dram_leak_pj_per_cycle = 10.0;
    hit_cycles = 1;
    miss_penalty = 6;
    prefetch_latency = 3;
  }

(* ------------------------------------------------------------------ *)
(* Random structured programs via the DSL.  Sizes are kept small so
   property tests stay fast; the generator exercises sequences,
   conditionals, loops (bounded), and far regions. *)

let gen_stmts =
  let open QCheck2.Gen in
  let compute = map (fun n -> Dsl.compute (1 + n)) (int_bound 12) in
  let rec stmts depth budget =
    if budget <= 0 then return []
    else
      let* len = int_range 1 3 in
      let* items = list_repeat len (stmt depth (budget / len)) in
      return items
  and stmt depth budget =
    if depth = 0 || budget <= 1 then compute
    else
      frequency
        [
          (4, compute);
          ( 2,
            let* p = float_range 0.2 0.8 in
            let* t = stmts (depth - 1) (budget / 2) in
            let* e = stmts (depth - 1) (budget / 2) in
            return (Dsl.if_ ~p t e) );
          ( 2,
            let* trips = int_range 1 6 in
            let* slack = int_bound 2 in
            let* body = stmts (depth - 1) (budget / 2) in
            let body = if body = [] then [ Dsl.compute 1 ] else body in
            return (Dsl.loop ~bound:(trips + slack) trips body) );
          ( 1,
            let* body = stmts (depth - 1) (budget / 2) in
            let body = if body = [] then [ Dsl.compute 2 ] else body in
            return (Dsl.Far body) );
        ]
  in
  let open QCheck2.Gen in
  let* depth = int_range 1 3 in
  let* budget = int_range 4 24 in
  let* body = stmts depth budget in
  return (if body = [] then [ Dsl.compute 3 ] else body)

let gen_program =
  QCheck2.Gen.map (fun stmts -> Dsl.compile ~name:"gen" stmts) gen_stmts

let gen_config =
  let open QCheck2.Gen in
  let* assoc = oneofl [ 1; 2; 4 ] in
  let* block_bytes = oneofl [ 8; 16; 32 ] in
  let* sets_log = int_range 0 4 in
  let capacity = assoc * block_bytes * (1 lsl sets_log) in
  return (Config.make ~assoc ~block_bytes ~capacity)

let gen_access_sequence =
  (* memory-block ids in a small universe to force conflicts *)
  QCheck2.Gen.(list_size (int_range 1 60) (int_bound 12))

(* Pretty-printers for counterexample reporting *)
let print_program p = Format.asprintf "%a" Ucp_isa.Program.pp p
let print_config c = Config.id c

(* Substring check for asserting on error/exception messages. *)
let contains ~substring s =
  let n = String.length substring and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = substring || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Reference residual-stall charge: the slot-level bucket search
   [Ucp_wcet.Wcet.residual_prefetch_stall] ran before it scanned one
   expanded node at a time.  It walks (node, slot) states in distance
   buckets, with a hash-table visited set, following DAG and iteration
   edges alike; the library's search must charge exactly the same. *)
let reference_residual_stall (w : Ucp_wcet.Wcet.t) =
  let module Vivu = Ucp_cfg.Vivu in
  let module Analysis = Ucp_wcet.Analysis in
  let analysis = w.Ucp_wcet.Wcet.analysis in
  let vivu = Analysis.vivu analysis in
  let program = Vivu.program vivu in
  let lambda = w.Ucp_wcet.Wcet.model.Cacti.prefetch_latency in
  let slots node = Ucp_isa.Program.slots program (Vivu.node vivu node).Vivu.block in
  let prefetch_target ~node ~pos =
    match
      (Ucp_isa.Layout.prefetch_targets (Analysis.layout analysis)
         (Vivu.node vivu node).Vivu.block).(pos)
    with
    | Ucp_isa.Layout.Target mb -> Some mb
    | Ucp_isa.Layout.No_target -> None
  in
  let min_distance_to_use ~node0 ~pos0 ~target =
    let buckets = Array.make (lambda + 1) [] in
    buckets.(0) <- [ (node0, pos0 + 1) ];
    let visited = Hashtbl.create 64 in
    let result = ref None in
    (try
       for dist = 0 to lambda do
         let rec drain () =
           match buckets.(dist) with
           | [] -> ()
           | (node, pos) :: rest ->
             buckets.(dist) <- rest;
             if not (Hashtbl.mem visited (node, pos)) then begin
               Hashtbl.replace visited (node, pos) ();
               if pos >= slots node then begin
                 List.iter (fun s -> buckets.(dist) <- (s, 0) :: buckets.(dist))
                   (Vivu.dag_succ vivu node);
                 List.iter (fun s -> buckets.(dist) <- (s, 0) :: buckets.(dist))
                   (Vivu.iter_succ vivu node)
               end
               else if Analysis.slot_mem_block analysis ~node ~pos = target then begin
                 result := Some dist;
                 raise Exit
               end
               else if dist < lambda then
                 buckets.(dist + 1) <- (node, pos + 1) :: buckets.(dist + 1)
             end;
             drain ()
         in
         drain ()
       done
     with Exit -> ());
    !result
  in
  let total = ref 0 in
  for node = 0 to Vivu.node_count vivu - 1 do
    if Vivu.mult vivu node > 0 then
      for pos = 0 to slots node - 1 do
        match prefetch_target ~node ~pos with
        | None -> ()
        | Some target -> (
          match min_distance_to_use ~node0:node ~pos0:pos ~target with
          | None -> ()
          | Some dist ->
            let shortfall = lambda - dist in
            if shortfall > 0 then total := !total + (shortfall * Vivu.mult vivu node))
      done
  done;
  !total

(* ------------------------------------------------------------------ *)
(* Reference abstract-set transfers: the filter-and-sort formulas the
   per-set domains of [Ucp_policy] used before they became single
   passes over sorted lists.  [Ucp_policy]'s [aset_*] operations and
   the victims [Ucp_cache.Abstract.transfer_ip] reports must agree
   with them on every sorted set. *)
module Reference_aset = struct
  (* Ferdinand-style LRU: the accessed block moves to age 0, entries
     younger than its old age (bound) age by one, entries at or beyond
     [assoc] fall out. *)
  let lru_update ~assoc entries mb =
    let old_age = try List.assoc mb entries with Not_found -> assoc in
    let aged =
      List.filter_map
        (fun (x, a) ->
          if x = mb then None
          else
            let a' = if a < old_age then a + 1 else a in
            if a' >= assoc then None else Some (x, a'))
        entries
    in
    List.sort compare ((mb, 0) :: aged)

  let fifo_age_others ~assoc ~drop entries mb =
    List.filter_map
      (fun (x, a) ->
        if x = mb then None
        else
          let a' = a + 1 in
          if drop && a' >= assoc then None else Some (x, a'))
      entries

  (* insertion at age 0 without aging: the FIFO unknown-outcome and the
     PLRU may insertion *)
  let insert entries mb =
    List.sort compare ((mb, 0) :: List.filter (fun (x, _) -> x <> mb) entries)

  let update policy kind ~assoc ~hint entries mb =
    match (policy, kind, hint) with
    | Ucp_policy.Lru, _, _ -> lru_update ~assoc entries mb
    | Ucp_policy.Fifo, _, Ucp_policy.Hit -> entries
    | Ucp_policy.Fifo, _, Ucp_policy.Miss ->
      List.sort compare ((mb, 0) :: fifo_age_others ~assoc ~drop:true entries mb)
    | Ucp_policy.Fifo, Ucp_policy.Must, Ucp_policy.Unknown ->
      if List.mem_assoc mb entries then entries
      else List.sort compare (fifo_age_others ~assoc ~drop:true entries mb)
    | Ucp_policy.Fifo, Ucp_policy.May, Ucp_policy.Unknown -> insert entries mb
    | Ucp_policy.Plru, Ucp_policy.Must, _ ->
      lru_update ~assoc:(Ucp_policy.plru_must_assoc assoc) entries mb
    | Ucp_policy.Plru, Ucp_policy.May, _ -> insert entries mb

  (* must: intersection with maximal ages; may: union with minimal
     ages *)
  let join kind ea eb =
    let joined =
      match kind with
      | Ucp_policy.Must ->
        List.filter_map
          (fun (x, a) ->
            match List.assoc_opt x eb with Some b -> Some (x, max a b) | None -> None)
          ea
      | Ucp_policy.May ->
        List.fold_left
          (fun acc (x, b) ->
            match List.assoc_opt x acc with
            | Some a -> (x, min a b) :: List.remove_assoc x acc
            | None -> (x, b) :: acc)
          ea eb
    in
    List.sort compare joined

  let leq kind a b =
    match kind with
    | Ucp_policy.Must ->
      List.for_all
        (fun (x, ab) -> match List.assoc_opt x a with Some aa -> aa <= ab | None -> false)
        b
    | Ucp_policy.May ->
      List.for_all
        (fun (x, aa) -> match List.assoc_opt x b with Some ab -> ab <= aa | None -> false)
        a

  (* the blocks of [mb]'s set that the update removes *)
  let victims policy kind ~assoc ~hint entries mb =
    let after = update policy kind ~assoc ~hint entries mb in
    List.filter_map
      (fun (x, _) -> if x <> mb && not (List.mem_assoc x after) then Some x else None)
      entries
end
