(* Tests for Ucp_cfg: traversals, dominators, natural loops, and the
   VIVU expansion. *)

module Program = Ucp_isa.Program
module Branch_model = Ucp_isa.Branch_model
module Cfgraph = Ucp_cfg.Cfgraph
module Dominators = Ucp_cfg.Dominators
module Loops = Ucp_cfg.Loops
module Vivu = Ucp_cfg.Vivu
module Dsl = Ucp_workloads.Dsl

let cond ~taken ~fallthrough =
  Program.S_cond { taken; fallthrough; model = Branch_model.Bernoulli 0.5 }

let block ?bound n term = { Program.spec_body = n; spec_term = term; spec_bound = bound }

(* entry -> loop header(bound 4) -> body -> latch(back/exit) -> exit *)
let simple_loop =
  Program.make ~name:"loop" ~entry:0
    [|
      block 2 (Program.S_fallthrough 1);
      block 3 ~bound:4 (cond ~taken:1 ~fallthrough:2);
      block 1 Program.S_return;
    |]

let nested_loops =
  Program.make ~name:"nested" ~entry:0
    [|
      block 1 (Program.S_fallthrough 1);
      (* outer header *)
      block 1 ~bound:3 (Program.S_fallthrough 2);
      (* inner header/latch *)
      block 2 ~bound:5 (cond ~taken:2 ~fallthrough:3);
      (* outer latch *)
      block 1 (cond ~taken:1 ~fallthrough:4);
      block 1 Program.S_return;
    |]

let diamond =
  Program.make ~name:"diamond" ~entry:0
    [|
      block 1 (cond ~taken:1 ~fallthrough:2);
      block 2 (Program.S_jump 3);
      block 3 (Program.S_fallthrough 3);
      block 1 Program.S_return;
    |]

(* ------------------------------------------------------------------ *)
(* Cfgraph *)

let test_predecessors () =
  let preds = Cfgraph.predecessors diamond in
  Alcotest.(check (list int)) "entry has none" [] preds.(0);
  Alcotest.(check (list int)) "join has both" [ 1; 2 ] (List.sort compare preds.(3))

let test_rpo_starts_at_entry () =
  let rpo = Cfgraph.reverse_postorder diamond in
  Alcotest.(check int) "entry first" 0 rpo.(0);
  Alcotest.(check int) "all blocks" 4 (Array.length rpo)

let test_unreachable_detected () =
  let p =
    Program.make ~name:"unreach" ~entry:0
      [| block 1 Program.S_return; block 1 Program.S_return |]
  in
  Alcotest.(check bool) "raises" true
    (try
       Cfgraph.check_all_reachable p;
       false
     with Invalid_argument _ -> true)

let test_exits () =
  Alcotest.(check (list int)) "exit blocks" [ 2 ] (Cfgraph.exits simple_loop)

(* ------------------------------------------------------------------ *)
(* Dominators *)

let test_dominators_diamond () =
  let d = Dominators.compute diamond in
  Alcotest.(check int) "idom of join is entry" 0 (Dominators.idom d 3);
  Alcotest.(check bool) "entry dominates all" true (Dominators.dominates d 0 3);
  Alcotest.(check bool) "branch arm does not dominate join" false
    (Dominators.dominates d 1 3);
  Alcotest.(check bool) "reflexive" true (Dominators.dominates d 2 2)

(* The first block pair on which [dominates] disagrees with a walk up
   the idom chain: [a] dominates [b] iff the chain from [b] to the
   entry meets [a]. *)
let dominance_mismatch p =
  let d = Dominators.compute p in
  let entry = Program.entry p in
  let rec on_chain a x = x = a || (x <> entry && on_chain a (Dominators.idom d x)) in
  let n = Program.block_count p in
  let found = ref None in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if !found = None && Dominators.dominates d a b <> on_chain a b then
        found := Some (a, b)
    done
  done;
  !found

let test_dominance_matches_walk_suite () =
  List.iter
    (fun (name, p) ->
      match dominance_mismatch p with
      | None -> ()
      | Some (a, b) -> Alcotest.failf "%s: dominates %d %d disagrees with the walk" name a b)
    Ucp_workloads.Suite.all

let prop_dominance_matches_walk =
  QCheck2.Test.make ~name:"interval dominance matches the idom walk" ~count:150
    ~print:Ucp_testlib.print_program Ucp_testlib.gen_program (fun p ->
      dominance_mismatch p = None)

(* ------------------------------------------------------------------ *)
(* Loops *)

let test_simple_loop_detected () =
  let f = Loops.analyze simple_loop in
  Alcotest.(check int) "one loop" 1 (Array.length f.Loops.loops);
  let l = f.Loops.loops.(0) in
  Alcotest.(check int) "header" 1 l.Loops.header;
  Alcotest.(check int) "bound" 4 l.Loops.bound;
  Alcotest.(check int) "depth" 1 l.Loops.depth;
  Alcotest.(check bool) "body contains header" true l.Loops.body.(1);
  Alcotest.(check bool) "body excludes exit" false l.Loops.body.(2)

let test_nested_loops_detected () =
  let f = Loops.analyze nested_loops in
  Alcotest.(check int) "two loops" 2 (Array.length f.Loops.loops);
  Alcotest.(check int) "max depth" 2 (Loops.max_depth f);
  let outer = f.Loops.loops.(0) and inner = f.Loops.loops.(1) in
  Alcotest.(check int) "outer first" 1 outer.Loops.depth;
  Alcotest.(check int) "inner depth" 2 inner.Loops.depth;
  Alcotest.(check (option int)) "inner parent" (Some 0) inner.Loops.parent;
  Alcotest.(check bool) "outer contains inner header" true
    outer.Loops.body.(inner.Loops.header)

let test_loops_of_block_ordering () =
  let f = Loops.analyze nested_loops in
  match Loops.loops_of_block f 2 with
  | [ outer; inner ] ->
    Alcotest.(check bool) "outermost first" true (outer.Loops.depth < inner.Loops.depth)
  | l -> Alcotest.failf "expected 2 loops, got %d" (List.length l)

let test_missing_bound_rejected () =
  let p =
    Program.make ~name:"nobound" ~entry:0
      [| block 1 (Program.S_fallthrough 1); block 2 (cond ~taken:1 ~fallthrough:2); block 1 Program.S_return |]
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Loops.analyze p);
       false
     with Invalid_argument _ -> true)

let test_spurious_bound_rejected () =
  let p =
    Program.make ~name:"spurious" ~entry:0
      [| block 1 ~bound:3 Program.S_return |]
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Loops.analyze p);
       false
     with Invalid_argument _ -> true)

let test_irreducible_rejected () =
  (* two blocks jumping into each other's middle: entry branches to both *)
  let p =
    Program.make ~name:"irr" ~entry:0
      [|
        block 1 (cond ~taken:1 ~fallthrough:2);
        block 1 ~bound:2 (cond ~taken:2 ~fallthrough:3);
        block 1 ~bound:2 (cond ~taken:1 ~fallthrough:3);
        block 1 Program.S_return;
      |]
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Loops.analyze p);
       false
     with Invalid_argument _ -> true)

let test_back_edge_query () =
  let f = Loops.analyze simple_loop in
  Alcotest.(check bool) "1->1 is back edge" true (Loops.is_back_edge f 1 1);
  Alcotest.(check bool) "0->1 is not" false (Loops.is_back_edge f 0 1)

let multi_latch =
  (* a loop whose header is reached by two distinct back edges *)
  Program.make ~name:"twolatch" ~entry:0
    [|
      block 1 (Program.S_fallthrough 1);
      block 1 ~bound:6 (cond ~taken:2 ~fallthrough:3);
      block 1 (cond ~taken:1 ~fallthrough:4);
      (* latch A or exit path *)
      block 1 (cond ~taken:1 ~fallthrough:4);
      (* latch B or exit *)
      block 1 Program.S_return;
    |]

let test_multi_latch_loop () =
  let f = Loops.analyze multi_latch in
  Alcotest.(check int) "one loop" 1 (Array.length f.Loops.loops);
  Alcotest.(check int) "two back edges" 2
    (List.length f.Loops.loops.(0).Loops.back_edges);
  (* VIVU still expands it into an acyclic DAG *)
  let v = Vivu.expand multi_latch in
  Alcotest.(check bool) "expanded" true (Vivu.node_count v > 5)

(* ------------------------------------------------------------------ *)
(* Vivu *)

let test_vivu_straightline_identity () =
  let p =
    Program.make ~name:"line" ~entry:0 [| block 4 Program.S_return |]
  in
  let v = Vivu.expand p in
  Alcotest.(check int) "one node" 1 (Vivu.node_count v);
  Alcotest.(check int) "mult 1" 1 (Vivu.mult v 0)

let test_vivu_loop_contexts () =
  let v = Vivu.expand simple_loop in
  (* entry, header First, header Rest, exit *)
  Alcotest.(check int) "four nodes" 4 (Vivu.node_count v);
  let first = Option.get (Vivu.find v ~block:1 ~ctx:[ (0, Vivu.First) ]) in
  let rest = Option.get (Vivu.find v ~block:1 ~ctx:[ (0, Vivu.Rest) ]) in
  Alcotest.(check int) "first runs once" 1 (Vivu.mult v first);
  Alcotest.(check int) "rest runs bound-1" 3 (Vivu.mult v rest);
  (* the rest header is fed by an iteration edge *)
  Alcotest.(check bool) "rest has iter pred" true (Vivu.iter_pred v rest <> []);
  Alcotest.(check bool) "first has no iter pred" true (Vivu.iter_pred v first = [])

let test_vivu_nested_mult () =
  let v = Vivu.expand nested_loops in
  let inner_rest_in_outer_rest =
    Option.get (Vivu.find v ~block:2 ~ctx:[ (0, Vivu.Rest); (1, Vivu.Rest) ])
  in
  (* outer bound 3, inner bound 5: (3-1) * (5-1) = 8 *)
  Alcotest.(check int) "nested multiplicity" 8 (Vivu.mult v inner_rest_in_outer_rest)

let test_vivu_topo_is_topological () =
  let v = Vivu.expand nested_loops in
  let order = Array.make (Vivu.node_count v) 0 in
  Array.iteri (fun i id -> order.(id) <- i) (Vivu.topo v);
  for id = 0 to Vivu.node_count v - 1 do
    List.iter
      (fun s ->
        Alcotest.(check bool) "edge goes forward" true (order.(id) < order.(s)))
      (Vivu.dag_succ v id)
  done

let test_vivu_instances_of_block () =
  let v = Vivu.expand simple_loop in
  Alcotest.(check int) "header has two instances" 2
    (List.length (Vivu.instances_of_block v 1));
  Alcotest.(check int) "entry has one" 1 (List.length (Vivu.instances_of_block v 0))

let test_vivu_pp_node () =
  let v = Vivu.expand simple_loop in
  let rendered = Format.asprintf "%a" (Vivu.pp_node v) (Vivu.entry v) in
  Alcotest.(check bool) "renders" true (String.length rendered > 0)

let test_vivu_exit_nodes () =
  let v = Vivu.expand simple_loop in
  Alcotest.(check int) "one exit instance" 1 (List.length (Vivu.exit_nodes v))

(* [Vivu.rebind] hands a program the expansion of another with the same
   control flow.  After prefetch insertions (bodies change, the CFG
   does not) it must give what a fresh expansion gives, node for node,
   on every suite program; a changed terminator, loop bound, entry or
   block count must be refused. *)
let check_same_graph label expected got =
  let n = Vivu.node_count expected in
  Alcotest.(check int) (label ^ " node count") n (Vivu.node_count got);
  Alcotest.(check int) (label ^ " entry") (Vivu.entry expected) (Vivu.entry got);
  Alcotest.(check (list int)) (label ^ " exit nodes") (Vivu.exit_nodes expected)
    (Vivu.exit_nodes got);
  Alcotest.(check (array int)) (label ^ " topo") (Vivu.topo expected) (Vivu.topo got);
  for id = 0 to n - 1 do
    let same f = f expected id = f got id in
    if
      not
        (same Vivu.node && same Vivu.mult && same Vivu.dag_succ && same Vivu.dag_pred
       && same Vivu.iter_succ && same Vivu.iter_pred)
    then Alcotest.failf "%s: node %d differs" label id
  done

(* a prefetch at the start of every third block, for the block's last
   slot *)
let with_prefetches p =
  let rec go p b =
    if b < 0 then p
    else if b mod 3 = 0 && Program.slots p b > 0 then
      let target = Program.slot_instr p ~block:b ~pos:(Program.slots p b - 1) in
      go (fst (Program.insert_prefetch p ~block:b ~pos:0 ~target_uid:target.Ucp_isa.Instr.uid)) (b - 1)
    else go p (b - 1)
  in
  go p (Program.block_count p - 1)

let test_vivu_rebind_suite () =
  List.iter
    (fun (name, p) ->
      let p' = with_prefetches p in
      Alcotest.(check bool) (name ^ " gained prefetches") true (Program.prefetch_count p' > 0);
      let rebound = Vivu.rebind (Vivu.expand p) p' in
      Alcotest.(check bool) (name ^ " rebound program") true (Vivu.program rebound == p');
      check_same_graph name (Vivu.expand p') rebound)
    Ucp_workloads.Suite.all

let test_vivu_rebind_rejects () =
  let specs =
    [|
      block 2 (Program.S_fallthrough 1);
      block 3 ~bound:4 (cond ~taken:1 ~fallthrough:2);
      block 1 Program.S_return;
    |]
  in
  let v = Vivu.expand (Program.make ~name:"loop" ~entry:0 specs) in
  let variant ?(entry = 0) edit =
    let specs = Array.copy specs in
    edit specs;
    Program.make ~name:"variant" ~entry specs
  in
  (* a different body size is not a different control flow *)
  let longer = variant (fun s -> s.(0) <- block 7 (Program.S_fallthrough 1)) in
  check_same_graph "longer body" (Vivu.expand longer) (Vivu.rebind v longer);
  List.iter
    (fun (label, p) ->
      Alcotest.(check bool) label true
        (try
           ignore (Vivu.rebind v p);
           false
         with Invalid_argument _ -> true))
    [
      ("terminator", variant (fun s -> s.(0) <- block 2 (Program.S_jump 1)));
      ("branch target", variant (fun s -> s.(1) <- block 3 ~bound:4 (cond ~taken:1 ~fallthrough:0)));
      ("loop bound", variant (fun s -> s.(1) <- block 3 ~bound:5 (cond ~taken:1 ~fallthrough:2)));
      ("entry", variant ~entry:2 ignore);
      ( "block count",
        Program.make ~name:"variant" ~entry:0 (Array.append specs [| block 1 Program.S_return |]) );
    ]

let prop_vivu_invariants =
  QCheck2.Test.make ~name:"vivu: acyclic, multiplicities, iter edges target rest headers"
    ~count:100 ~print:Ucp_testlib.print_program Ucp_testlib.gen_program (fun p ->
      let v = Vivu.expand p in
      let n = Vivu.node_count v in
      let order = Array.make n 0 in
      Array.iteri (fun i id -> order.(id) <- i) (Vivu.topo v);
      let topo_ok = ref true in
      for id = 0 to n - 1 do
        List.iter (fun s -> if order.(id) >= order.(s) then topo_ok := false) (Vivu.dag_succ v id)
      done;
      let mult_ok = ref true in
      for id = 0 to n - 1 do
        if Vivu.mult v id < 0 then mult_ok := false
      done;
      let iter_ok = ref true in
      for id = 0 to n - 1 do
        if Vivu.iter_pred v id <> [] then begin
          let nd = Vivu.node v id in
          match List.rev nd.Vivu.ctx with
          | (_, Vivu.Rest) :: _ -> ()
          | _ -> iter_ok := false
        end
      done;
      !topo_ok && !mult_ok && !iter_ok)

(* ------------------------------------------------------------------ *)
(* Dsl compilation structure *)

let test_dsl_far_blocks_last () =
  let p = Dsl.compile ~name:"far" [ Dsl.compute 2; Dsl.Far [ Dsl.compute 3 ]; Dsl.compute 1 ] in
  (* the far body's block must be laid out after every near block;
     detect it as the block reached by the first jump *)
  Cfgraph.check_all_reachable p;
  let far_entry =
    match (Program.block p (Program.entry p)).Program.term with
    | Program.Jump { target; _ } -> target
    | _ -> Alcotest.fail "entry should jump to the far body"
  in
  Alcotest.(check int) "far body last" (Program.block_count p - 1) far_entry

let test_dsl_loop_bounds () =
  let p = Dsl.compile ~name:"l" [ Dsl.loop ~bound:9 5 [ Dsl.compute 2 ] ] in
  let f = Loops.analyze p in
  Alcotest.(check int) "bound carried" 9 f.Loops.loops.(0).Loops.bound

let test_dsl_rejects_bad_trips () =
  Alcotest.(check bool) "trips > bound rejected" true
    (try
       ignore (Dsl.compile ~name:"x" [ Dsl.loop ~bound:2 5 [ Dsl.compute 1 ] ]);
       false
     with Invalid_argument _ -> true)

let test_dsl_rejects_recursion () =
  Alcotest.(check bool) "recursive call rejected" true
    (try
       ignore
         (Dsl.compile ~name:"x" ~procs:[ ("f", [ Dsl.call "f" ]) ] [ Dsl.call "f" ]);
       false
     with Invalid_argument _ -> true)

let prop_dsl_programs_wellformed =
  QCheck2.Test.make ~name:"generated programs are reachable and reducible" ~count:150
    ~print:Ucp_testlib.print_program Ucp_testlib.gen_program (fun p ->
      Cfgraph.check_all_reachable p;
      ignore (Loops.analyze p);
      true)

let () =
  Alcotest.run "ucp_cfg"
    [
      ( "cfgraph",
        [
          Alcotest.test_case "predecessors" `Quick test_predecessors;
          Alcotest.test_case "rpo" `Quick test_rpo_starts_at_entry;
          Alcotest.test_case "unreachable" `Quick test_unreachable_detected;
          Alcotest.test_case "exits" `Quick test_exits;
        ] );
      ( "dominators",
        [
          Alcotest.test_case "diamond" `Quick test_dominators_diamond;
          Alcotest.test_case "suite matches the idom walk" `Quick
            test_dominance_matches_walk_suite;
          QCheck_alcotest.to_alcotest prop_dominance_matches_walk;
        ] );
      ( "loops",
        [
          Alcotest.test_case "simple loop" `Quick test_simple_loop_detected;
          Alcotest.test_case "nested loops" `Quick test_nested_loops_detected;
          Alcotest.test_case "loops_of_block order" `Quick test_loops_of_block_ordering;
          Alcotest.test_case "missing bound" `Quick test_missing_bound_rejected;
          Alcotest.test_case "spurious bound" `Quick test_spurious_bound_rejected;
          Alcotest.test_case "irreducible" `Quick test_irreducible_rejected;
          Alcotest.test_case "back edge query" `Quick test_back_edge_query;
          Alcotest.test_case "multi-latch loop" `Quick test_multi_latch_loop;
        ] );
      ( "vivu",
        [
          Alcotest.test_case "straight line" `Quick test_vivu_straightline_identity;
          Alcotest.test_case "loop contexts" `Quick test_vivu_loop_contexts;
          Alcotest.test_case "nested mult" `Quick test_vivu_nested_mult;
          Alcotest.test_case "topological" `Quick test_vivu_topo_is_topological;
          Alcotest.test_case "exit nodes" `Quick test_vivu_exit_nodes;
          Alcotest.test_case "instances of block" `Quick test_vivu_instances_of_block;
          Alcotest.test_case "pp node" `Quick test_vivu_pp_node;
          QCheck_alcotest.to_alcotest prop_vivu_invariants;
          Alcotest.test_case "rebind after insertions" `Quick test_vivu_rebind_suite;
          Alcotest.test_case "rebind rejects a changed CFG" `Quick test_vivu_rebind_rejects;
        ] );
      ( "dsl",
        [
          Alcotest.test_case "far blocks last" `Quick test_dsl_far_blocks_last;
          Alcotest.test_case "loop bounds" `Quick test_dsl_loop_bounds;
          Alcotest.test_case "bad trips" `Quick test_dsl_rejects_bad_trips;
          Alcotest.test_case "recursion" `Quick test_dsl_rejects_recursion;
          QCheck_alcotest.to_alcotest prop_dsl_programs_wellformed;
        ] );
    ]
