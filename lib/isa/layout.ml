type target = No_target | Target of int

exception Dangling_prefetch_target of int

let () =
  Printexc.register_printer (function
    | Dangling_prefetch_target uid ->
      Some
        (Printf.sprintf
           "Layout.Dangling_prefetch_target: a prefetch targets uid %d, absent from the \
            program"
           uid)
    | _ -> None)

type t = {
  program : Program.t;
  block_bytes : int;
  base : int;  (* address of global slot 0 *)
  starts : int array;  (* global slot index of each block's first slot *)
  total : int;
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
  (* uid -> memory block (-1: no such instruction), only to resolve
     prefetch targets below *)
  let mem_block_of_uid = Array.make (Program.uid_bound program) (-1) in
  let body id = (Program.block program id).Program.body in
  let slot_blocks =
    Array.init n (fun id ->
        let mb pos = (base + (Instr.bytes * (starts.(id) + pos))) / block_bytes in
        let body = body id in
        Array.iteri (fun pos i -> mem_block_of_uid.(i.Instr.uid) <- mb pos) body;
        Option.iter
          (fun uid -> mem_block_of_uid.(uid) <- mb (Array.length body))
          (Program.term_uid program id);
        Array.init (Program.slots program id) mb)
  in
  let targets =
    Array.init n (fun id ->
        let body = body id in
        Array.init (Program.slots program id) (fun pos ->
            if pos = Array.length body then No_target
            else
              match body.(pos).Instr.kind with
              | Instr.Compute -> No_target
              | Instr.Prefetch uid ->
                if mem_block_of_uid.(uid) < 0 then raise (Dangling_prefetch_target uid);
                Target mem_block_of_uid.(uid)))
  in
  { program; block_bytes; base; starts; total; slot_blocks; targets }

let program t = t.program

let addr t ~block ~pos =
  let slot_count = Program.slots t.program block in
  if pos < 0 || pos >= slot_count then
    invalid_arg (Printf.sprintf "Layout.addr: block %d has no slot %d" block pos);
  t.base + (Instr.bytes * (t.starts.(block) + pos))

let mem_block t ~block ~pos = addr t ~block ~pos / t.block_bytes

let addr_of_uid t uid =
  match Program.find_uid t.program uid with
  | None -> None
  | Some (block, pos) -> Some (addr t ~block ~pos)

let slot_mem_blocks t block = t.slot_blocks.(block)
let prefetch_targets t block = t.targets.(block)

(* Under the end-anchored layout the code fills the consecutive
   addresses [base, end_addr), so its memory blocks are one contiguous
   range: every block from the first slot's to the last slot's holds
   code. *)
let code_mem_blocks t =
  if t.total = 0 then 0
  else ((end_addr - Instr.bytes) / t.block_bytes) - (t.base / t.block_bytes) + 1

let mem_block_ids t = List.init (code_mem_blocks t) (fun i -> (t.base / t.block_bytes) + i)
