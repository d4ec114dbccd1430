type target = No_target | Target of int | Dangling of int

type t = {
  program : Program.t;
  block_bytes : int;
  base : int;  (* address of global slot 0 *)
  starts : int array;  (* global slot index of each block's first slot *)
  total : int;
  by_block : (int, (int * int) list) Hashtbl.t;  (* mem block -> slots, reversed *)
  slot_blocks : int array array;  (* basic block -> memory block of each slot *)
  targets : target array array;  (* basic block -> prefetch target of each slot *)
}

let end_addr = 1 lsl 24

let make program ~block_bytes =
  if block_bytes <= 0 || block_bytes mod Instr.bytes <> 0 then
    invalid_arg "Layout.make: block_bytes must be a positive multiple of 4";
  if end_addr mod block_bytes <> 0 then
    invalid_arg "Layout.make: block_bytes must divide the anchor address";
  let n = Program.block_count program in
  let starts = Array.make n 0 in
  let total = ref 0 in
  for id = 0 to n - 1 do
    starts.(id) <- !total;
    total := !total + Program.slots program id
  done;
  let total = !total in
  let base = end_addr - (Instr.bytes * total) in
  let by_block = Hashtbl.create 64 in
  let slot_blocks = Array.init n (fun id -> Array.make (Program.slots program id) 0) in
  (* uid -> memory block, only to resolve prefetch targets below *)
  let mem_block_of_uid = Hashtbl.create total in
  Program.iter_slots program (fun ~block ~pos ~instr ->
      let a = base + (Instr.bytes * (starts.(block) + pos)) in
      let mb = a / block_bytes in
      slot_blocks.(block).(pos) <- mb;
      Hashtbl.replace mem_block_of_uid instr.Instr.uid mb;
      let prev = try Hashtbl.find by_block mb with Not_found -> [] in
      Hashtbl.replace by_block mb ((block, pos) :: prev));
  let targets =
    Array.init n (fun id ->
        Array.init (Program.slots program id) (fun pos ->
            match (Program.slot_instr program ~block:id ~pos).Instr.kind with
            | Instr.Compute -> No_target
            | Instr.Prefetch uid -> (
              match Hashtbl.find_opt mem_block_of_uid uid with
              | Some mb -> Target mb
              | None -> Dangling uid)))
  in
  { program; block_bytes; base; starts; total; by_block; slot_blocks; targets }

let program t = t.program
let block_bytes t = t.block_bytes
let items_per_block t = t.block_bytes / Instr.bytes

let addr t ~block ~pos =
  let slot_count = Program.slots t.program block in
  if pos < 0 || pos >= slot_count then
    invalid_arg (Printf.sprintf "Layout.addr: block %d has no slot %d" block pos);
  t.base + (Instr.bytes * (t.starts.(block) + pos))

let mem_block_of_addr t a = a / t.block_bytes

let mem_block t ~block ~pos = mem_block_of_addr t (addr t ~block ~pos)

let addr_of_uid t uid =
  match Program.find_uid t.program uid with
  | None -> None
  | Some (block, pos) -> Some (addr t ~block ~pos)

let slot_mem_blocks t block = t.slot_blocks.(block)
let prefetch_targets t block = t.targets.(block)

let slots_of_mem_block t mb =
  match Hashtbl.find_opt t.by_block mb with
  | None -> []
  | Some slots -> List.rev slots

let first_slot_of_mem_block t mb =
  match slots_of_mem_block t mb with [] -> None | slot :: _ -> Some slot

let mem_block_ids t =
  Hashtbl.fold (fun mb _ acc -> mb :: acc) t.by_block [] |> List.sort compare

let code_mem_blocks t = Hashtbl.length t.by_block
