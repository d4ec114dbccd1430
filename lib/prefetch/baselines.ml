module Program = Ucp_isa.Program
module Layout = Ucp_isa.Layout
module Vivu = Ucp_cfg.Vivu
module Config = Ucp_cache.Config
module Analysis = Ucp_wcet.Analysis
module Wcet = Ucp_wcet.Wcet
module Classification = Ucp_wcet.Classification

let bb_start program config model =
  let w = Wcet.compute program config model in
  let analysis = w.Wcet.analysis in
  let vivu = Analysis.vivu analysis in
  (* For every block: the distinct memory blocks some slot of some
     instance misses on, represented by the uid of the first missing
     slot (uids survive the relocation the insertions cause). *)
  let wanted : (int, (int * int) list) Hashtbl.t = Hashtbl.create 32 in
  for node_id = 0 to Vivu.node_count vivu - 1 do
    let nd = Vivu.node vivu node_id in
    let block = nd.Vivu.block in
    let n_slots = Program.slots program block in
    for pos = 0 to n_slots - 1 do
      if Classification.is_wcet_miss (Analysis.classif analysis ~node:node_id ~pos)
      then begin
        let mb = Analysis.slot_mem_block analysis ~node:node_id ~pos in
        let instr = Program.slot_instr program ~block ~pos in
        let existing = try Hashtbl.find wanted block with Not_found -> [] in
        if not (List.mem_assoc mb existing) then
          Hashtbl.replace wanted block ((mb, instr.Ucp_isa.Instr.uid) :: existing)
      end
    done
  done;
  Hashtbl.fold (fun block targets acc -> (block, List.rev targets) :: acc) wanted []
  |> List.sort compare
  |> List.concat_map (fun (block, targets) ->
         List.map (fun (_mb, target_uid) -> (block, 0, target_uid)) targets)
  |> Program.insert_prefetches program

type locking = {
  locked_blocks : int list;
  tau_locked : int;
}

let wcet_locked program config model ~locked =
  let layout = Layout.make program ~block_bytes:config.Config.block_bytes in
  let vivu = Vivu.expand program in
  let is_locked =
    let tbl = Hashtbl.create 16 in
    List.iter (fun mb -> Hashtbl.replace tbl mb ()) locked;
    fun mb -> Hashtbl.mem tbl mb
  in
  let hit = model.Ucp_energy.Cacti.hit_cycles in
  let miss = hit + model.Ucp_energy.Cacti.miss_penalty in
  let node_cycles =
    Array.init (Vivu.node_count vivu) (fun node_id ->
        let nd = Vivu.node vivu node_id in
        let block = nd.Vivu.block in
        let n_slots = Program.slots program block in
        let total = ref 0 in
        for pos = 0 to n_slots - 1 do
          let mb = Layout.mem_block layout ~block ~pos in
          total := !total + (if is_locked mb then hit else miss)
        done;
        !total)
  in
  let tau, _path = Wcet.longest_path vivu ~node_cycles in
  tau

let lock_greedy program config model =
  let layout = Layout.make program ~block_bytes:config.Config.block_bytes in
  let vivu = Vivu.expand program in
  (* Worst-case access weight of every memory block. *)
  let weight : (int, int) Hashtbl.t = Hashtbl.create 64 in
  for node_id = 0 to Vivu.node_count vivu - 1 do
    let nd = Vivu.node vivu node_id in
    let block = nd.Vivu.block in
    let mult = Vivu.mult vivu node_id in
    for pos = 0 to Program.slots program block - 1 do
      let mb = Layout.mem_block layout ~block ~pos in
      let prev = try Hashtbl.find weight mb with Not_found -> 0 in
      Hashtbl.replace weight mb (prev + mult)
    done
  done;
  (* Per set, keep the [assoc] heaviest blocks. *)
  let per_set : (int, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun mb wgt ->
      let s = Config.set_of_mem_block config mb in
      let prev = try Hashtbl.find per_set s with Not_found -> [] in
      Hashtbl.replace per_set s ((wgt, mb) :: prev))
    weight;
  let locked_blocks =
    Hashtbl.fold
      (fun _set entries acc ->
        let sorted = List.sort (fun a b -> compare b a) entries in
        let rec take n = function
          | [] -> []
          | (_, mb) :: tl -> if n = 0 then [] else mb :: take (n - 1) tl
        in
        take config.Config.assoc sorted @ acc)
      per_set []
    |> List.sort compare
  in
  { locked_blocks; tau_locked = wcet_locked program config model ~locked:locked_blocks }


type hybrid = {
  hybrid_program : Program.t;
  hybrid_pinned : int list;
  hybrid_config : Config.t;
  hybrid_tau : int;
}

(* Per-set top-[ways] blocks by worst-case access weight — the same
   greedy content selection as [lock_greedy], restricted to the locked
   ways. *)
let select_pinned program config ~ways =
  let layout = Layout.make program ~block_bytes:config.Config.block_bytes in
  let vivu = Vivu.expand program in
  let weight : (int, int) Hashtbl.t = Hashtbl.create 64 in
  for node_id = 0 to Vivu.node_count vivu - 1 do
    let nd = Vivu.node vivu node_id in
    let block = nd.Vivu.block in
    let mult = Vivu.mult vivu node_id in
    for pos = 0 to Program.slots program block - 1 do
      let mb = Layout.mem_block layout ~block ~pos in
      let prev = try Hashtbl.find weight mb with Not_found -> 0 in
      Hashtbl.replace weight mb (prev + mult)
    done
  done;
  let per_set : (int, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun mb wgt ->
      let s = Config.set_of_mem_block config mb in
      let prev = try Hashtbl.find per_set s with Not_found -> [] in
      Hashtbl.replace per_set s ((wgt, mb) :: prev))
    weight;
  Hashtbl.fold
    (fun _set entries acc ->
      let sorted = List.sort (fun a b -> compare b a) entries in
      let rec take n = function
        | [] -> []
        | (_, mb) :: tl -> if n = 0 then [] else mb :: take (n - 1) tl
      in
      take ways sorted @ acc)
    per_set []
  |> List.sort compare

let lock_hybrid ~ways program config model =
  if ways <= 0 || ways >= config.Config.assoc then
    invalid_arg "Baselines.lock_hybrid: need 0 < ways < associativity";
  let pinned_blocks = select_pinned program config ~ways in
  let pinned =
    let tbl = Hashtbl.create 16 in
    List.iter (fun mb -> Hashtbl.replace tbl mb ()) pinned_blocks;
    fun mb -> Hashtbl.mem tbl mb
  in
  (* the unlocked ways form a cache with the same set count *)
  let unlocked_assoc = config.Config.assoc - ways in
  let hybrid_config =
    Config.make ~assoc:unlocked_assoc ~block_bytes:config.Config.block_bytes
      ~capacity:(unlocked_assoc * config.Config.block_bytes * config.Config.sets)
  in
  let r = Optimizer.optimize ~pinned program hybrid_config model in
  {
    hybrid_program = r.Optimizer.program;
    hybrid_pinned = pinned_blocks;
    hybrid_config;
    hybrid_tau = r.Optimizer.tau_after;
  }
