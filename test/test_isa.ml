(* Tests for Ucp_isa: instructions, programs, and the end-anchored
   layout with its relocation discipline. *)

module Instr = Ucp_isa.Instr
module Program = Ucp_isa.Program
module Layout = Ucp_isa.Layout
module Branch_model = Ucp_isa.Branch_model

let straightline n =
  Program.make ~name:"line" ~entry:0
    [| { Program.spec_body = n; spec_term = Program.S_return; spec_bound = None } |]

let diamond () =
  Program.make ~name:"diamond" ~entry:0
    [|
      {
        Program.spec_body = 2;
        spec_term =
          Program.S_cond
            { taken = 1; fallthrough = 2; model = Branch_model.Bernoulli 0.5 };
        spec_bound = None;
      };
      { Program.spec_body = 3; spec_term = Program.S_jump 3; spec_bound = None };
      { Program.spec_body = 1; spec_term = Program.S_fallthrough 3; spec_bound = None };
      { Program.spec_body = 2; spec_term = Program.S_return; spec_bound = None };
    |]

(* ------------------------------------------------------------------ *)
(* Instr *)

let test_instr_kinds () =
  let c = Instr.compute ~uid:1 in
  let p = Instr.prefetch ~uid:2 ~target:1 in
  Alcotest.(check bool) "compute is not prefetch" false (Instr.is_prefetch c);
  Alcotest.(check bool) "prefetch is prefetch" true (Instr.is_prefetch p);
  Alcotest.(check int) "4 bytes" 4 Instr.bytes

(* ------------------------------------------------------------------ *)
(* Program *)

let test_make_validates_entry () =
  Alcotest.(check bool) "bad entry rejected" true
    (try
       ignore
         (Program.make ~name:"x" ~entry:5
            [| { Program.spec_body = 1; spec_term = Program.S_return; spec_bound = None } |]);
       false
     with Invalid_argument _ -> true)

let test_make_validates_targets () =
  Alcotest.(check bool) "dangling jump rejected" true
    (try
       ignore
         (Program.make ~name:"x" ~entry:0
            [| { Program.spec_body = 1; spec_term = Program.S_jump 9; spec_bound = None } |]);
       false
     with Invalid_argument _ -> true)

let test_make_validates_bounds () =
  Alcotest.(check bool) "nonpositive bound rejected" true
    (try
       ignore
         (Program.make ~name:"x" ~entry:0
            [| { Program.spec_body = 1; spec_term = Program.S_return; spec_bound = Some 0 } |]);
       false
     with Invalid_argument _ -> true)

let test_slots_counting () =
  let p = diamond () in
  Alcotest.(check int) "cond block: body + terminator" 3 (Program.slots p 0);
  Alcotest.(check int) "jump block" 4 (Program.slots p 1);
  Alcotest.(check int) "fallthrough has no slot" 1 (Program.slots p 2);
  Alcotest.(check int) "return block" 3 (Program.slots p 3);
  Alcotest.(check int) "total" 11 (Program.total_slots p)

let test_successors () =
  let p = diamond () in
  Alcotest.(check (list int)) "cond" [ 1; 2 ] (Program.successors p 0);
  Alcotest.(check (list int)) "jump" [ 3 ] (Program.successors p 1);
  Alcotest.(check (list int)) "fall" [ 3 ] (Program.successors p 2);
  Alcotest.(check (list int)) "return" [] (Program.successors p 3)

let test_uids_unique () =
  let p = diamond () in
  let seen = Hashtbl.create 16 in
  Program.iter_slots p (fun ~block:_ ~pos:_ ~instr ->
      Alcotest.(check bool) "unique uid" false (Hashtbl.mem seen instr.Instr.uid);
      Hashtbl.replace seen instr.Instr.uid ());
  Alcotest.(check int) "all slots visited" (Program.total_slots p) (Hashtbl.length seen)

let test_find_uid () =
  let p = straightline 5 in
  (match Program.find_uid p 3 with
  | Some (0, 3) -> ()
  | Some (b, i) -> Alcotest.failf "found at (%d,%d)" b i
  | None -> Alcotest.fail "not found");
  Alcotest.(check bool) "absent uid" true (Program.find_uid p 999 = None)

let test_insert_and_remove_prefetch () =
  let p = straightline 5 in
  let p', uid = Program.insert_prefetch p ~block:0 ~pos:2 ~target_uid:4 in
  Alcotest.(check int) "one more slot" (Program.total_slots p + 1) (Program.total_slots p');
  Alcotest.(check int) "one prefetch" 1 (Program.prefetch_count p');
  Alcotest.(check bool) "prefetch equivalent" true (Program.prefetch_equivalent p p');
  (match Program.find_uid p' uid with
  | Some (0, 2) -> ()
  | _ -> Alcotest.fail "prefetch not where expected");
  let p'' = Program.remove_uid p' uid in
  Alcotest.(check int) "slot count restored" (Program.total_slots p)
    (Program.total_slots p'');
  Alcotest.(check int) "no prefetch" 0 (Program.prefetch_count p'')

let test_insert_rejects_bad_target () =
  let p = straightline 3 in
  Alcotest.(check bool) "unknown target rejected" true
    (try
       ignore (Program.insert_prefetch p ~block:0 ~pos:0 ~target_uid:77);
       false
     with Invalid_argument _ -> true)

let test_remove_rejects_terminator () =
  let p = straightline 2 in
  let term_uid = Option.get (Program.term_uid p 0) in
  Alcotest.(check bool) "terminator not removable" true
    (try
       ignore (Program.remove_uid p term_uid);
       false
     with Invalid_argument _ -> true)

let test_prefetch_equivalent_negative () =
  let a = straightline 4 and b = straightline 5 in
  Alcotest.(check bool) "different programs" false (Program.prefetch_equivalent a b)

(* ------------------------------------------------------------------ *)
(* Layout *)

let test_layout_end_anchored () =
  let p = straightline 6 in
  let l = Layout.make p ~block_bytes:16 in
  let last = Program.total_slots p - 1 in
  Alcotest.(check int) "last slot below anchor" (Layout.end_addr - 4)
    (Layout.addr l ~block:0 ~pos:last)

let test_layout_contiguous () =
  let p = diamond () in
  let l = Layout.make p ~block_bytes:16 in
  (* addresses increase by 4 per slot in block order *)
  let prev = ref None in
  Program.iter_slots p (fun ~block ~pos ~instr:_ ->
      let a = Layout.addr l ~block ~pos in
      (match !prev with
      | Some a0 -> Alcotest.(check int) "step 4" (a0 + 4) a
      | None -> ());
      prev := Some a)

let test_layout_insertion_keeps_suffix () =
  let p = straightline 8 in
  let l = Layout.make p ~block_bytes:16 in
  let addr_of_uid uid = Option.get (Layout.addr_of_uid l uid) in
  let before = List.map addr_of_uid [ 5; 6; 7; 8 ] in
  let p', _ = Program.insert_prefetch p ~block:0 ~pos:5 ~target_uid:7 in
  let l' = Layout.make p' ~block_bytes:16 in
  let after = List.map (fun u -> Option.get (Layout.addr_of_uid l' u)) [ 5; 6; 7; 8 ] in
  Alcotest.(check (list int)) "suffix addresses unchanged" before after;
  (* the prefix shifted down by one instruction *)
  Alcotest.(check int) "prefix shifted" (addr_of_uid 0 - 4)
    (Option.get (Layout.addr_of_uid l' 0))

let test_layout_mem_block_mapping () =
  let p = straightline 8 in
  let l = Layout.make p ~block_bytes:16 in
  Program.iter_slots p (fun ~block ~pos ~instr:_ ->
      let a = Layout.addr l ~block ~pos in
      Alcotest.(check int) "S(r) = addr / bs" (a / 16) (Layout.mem_block l ~block ~pos))

let test_layout_first_slot_of_block () =
  let p = straightline 8 in
  let l = Layout.make p ~block_bytes:16 in
  List.iter
    (fun mb ->
      match Layout.first_slot_of_mem_block l mb with
      | None -> Alcotest.fail "listed block without slots"
      | Some (b, pos) ->
        let a = Layout.addr l ~block:b ~pos in
        List.iter
          (fun (b', pos') ->
            Alcotest.(check bool) "first has smallest address" true
              (Layout.addr l ~block:b' ~pos:pos' >= a))
          (Layout.slots_of_mem_block l mb))
    (Layout.mem_block_ids l)

let test_layout_rejects_bad_block_size () =
  let p = straightline 3 in
  Alcotest.(check bool) "block size multiple of 4" true
    (try
       ignore (Layout.make p ~block_bytes:6);
       false
     with Invalid_argument _ -> true)

(* The slot table holds, for every slot, the memory block its address
   maps to and, for a prefetch, the memory block of the slot its target
   uid names; compute slots and terminators carry no target.  Checked
   for the suite, its BB-start versions (many prefetches) and a few
   generated programs, at 16 B and 32 B lines. *)
let check_slot_table p ~block_bytes =
  let l = Layout.make p ~block_bytes in
  for block = 0 to Program.block_count p - 1 do
    let mem_blocks = Layout.slot_mem_blocks l block in
    let targets = Layout.prefetch_targets l block in
    Alcotest.(check int) "one entry per slot" (Program.slots p block)
      (Array.length mem_blocks);
    Alcotest.(check int) "one target per slot" (Program.slots p block)
      (Array.length targets);
    Array.iteri
      (fun pos mb ->
        Alcotest.(check int) "memory block" (Layout.mem_block l ~block ~pos) mb;
        let expected =
          match (Program.slot_instr p ~block ~pos).Instr.kind with
          | Instr.Compute -> Layout.No_target
          | Instr.Prefetch uid -> (
            match Program.find_uid p uid with
            | Some (b, q) -> Layout.Target (Layout.mem_block l ~block:b ~pos:q)
            | None -> Layout.Dangling uid)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s b%d:%d target" (Program.name p) block pos)
          true
          (targets.(pos) = expected))
      mem_blocks
  done

let test_layout_slot_table () =
  let config = List.assoc "k4" Ucp_cache.Config.paper_configs in
  let model = Ucp_energy.Cacti.model config Ucp_energy.Tech.nm45 in
  let suite = List.map snd Ucp_workloads.Suite.all in
  let programs =
    suite
    @ List.map (fun p -> Ucp_prefetch.Baselines.bb_start p config model) suite
    @ List.concat_map
        (fun cls ->
          List.init 3 (fun seed -> Ucp_workloads.Generate.program ~seed:(seed + 1) ~cls))
        [ "s"; "m"; "l" ]
  in
  Alcotest.(check bool) "some prefetches to resolve" true
    (List.exists (fun p -> Program.prefetch_count p > 0) programs);
  List.iter
    (fun p -> List.iter (fun block_bytes -> check_slot_table p ~block_bytes) [ 16; 32 ])
    programs;
  (* a prefetch whose target was removed stays in the table, marked *)
  let p, _ = Program.insert_prefetch (straightline 8) ~block:0 ~pos:1 ~target_uid:5 in
  let p = Program.remove_uid p 5 in
  Alcotest.(check bool) "dangling target marked" true
    ((Layout.prefetch_targets (Layout.make p ~block_bytes:16) 0).(1) = Layout.Dangling 5)

(* property: layout occupies ceil(total*4/bs) or that +1 memory blocks *)
let prop_layout_block_count =
  QCheck2.Test.make ~name:"code spans a sane number of memory blocks" ~count:100
    ~print:Ucp_testlib.print_program Ucp_testlib.gen_program (fun p ->
      let l = Layout.make p ~block_bytes:16 in
      let bytes = 4 * Ucp_isa.Program.total_slots p in
      let min_blocks = (bytes + 15) / 16 in
      let n = Layout.code_mem_blocks l in
      n = min_blocks || n = min_blocks + 1)

let prop_uid_addresses_unique =
  QCheck2.Test.make ~name:"every slot has a distinct address" ~count:100
    ~print:Ucp_testlib.print_program Ucp_testlib.gen_program (fun p ->
      let l = Layout.make p ~block_bytes:16 in
      let addrs = ref [] in
      Ucp_isa.Program.iter_slots p (fun ~block ~pos ~instr:_ ->
          addrs := Layout.addr l ~block ~pos :: !addrs);
      let sorted = List.sort_uniq compare !addrs in
      List.length sorted = List.length !addrs)

let () =
  Alcotest.run "ucp_isa"
    [
      ("instr", [ Alcotest.test_case "kinds" `Quick test_instr_kinds ]);
      ( "program",
        [
          Alcotest.test_case "validates entry" `Quick test_make_validates_entry;
          Alcotest.test_case "validates targets" `Quick test_make_validates_targets;
          Alcotest.test_case "validates bounds" `Quick test_make_validates_bounds;
          Alcotest.test_case "slot counting" `Quick test_slots_counting;
          Alcotest.test_case "successors" `Quick test_successors;
          Alcotest.test_case "uids unique" `Quick test_uids_unique;
          Alcotest.test_case "find uid" `Quick test_find_uid;
          Alcotest.test_case "insert/remove prefetch" `Quick test_insert_and_remove_prefetch;
          Alcotest.test_case "insert bad target" `Quick test_insert_rejects_bad_target;
          Alcotest.test_case "remove terminator" `Quick test_remove_rejects_terminator;
          Alcotest.test_case "prefetch-equivalent negative" `Quick
            test_prefetch_equivalent_negative;
        ] );
      ( "layout",
        [
          Alcotest.test_case "end anchored" `Quick test_layout_end_anchored;
          Alcotest.test_case "contiguous" `Quick test_layout_contiguous;
          Alcotest.test_case "insertion keeps suffix" `Quick
            test_layout_insertion_keeps_suffix;
          Alcotest.test_case "mem block mapping" `Quick test_layout_mem_block_mapping;
          Alcotest.test_case "first slot of block" `Quick test_layout_first_slot_of_block;
          Alcotest.test_case "slot table" `Quick test_layout_slot_table;
          Alcotest.test_case "bad block size" `Quick test_layout_rejects_bad_block_size;
          QCheck_alcotest.to_alcotest prop_layout_block_count;
          QCheck_alcotest.to_alcotest prop_uid_addresses_unique;
        ] );
    ]
