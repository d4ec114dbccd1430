(* Tests for Ucp_sim: deterministic execution, branch models, timing
   and event accounting, the prefetch port, locked mode, and hardware
   prefetchers. *)

module Program = Ucp_isa.Program
module Config = Ucp_cache.Config
module Cacti = Ucp_energy.Cacti
module Account = Ucp_energy.Account
module Simulator = Ucp_sim.Simulator
module Hw = Ucp_sim.Hw_prefetch
module Dsl = Ucp_workloads.Dsl

let model = Ucp_testlib.tiny_model
let config = Config.make ~assoc:2 ~block_bytes:16 ~capacity:64

(* ------------------------------------------------------------------ *)
(* basic execution *)

let test_straightline_exact_counts () =
  let p = Dsl.compile ~name:"line" [ Dsl.compute 7 ] in
  (* 7 compute + 1 return = 8 instructions = 2 memory blocks *)
  let s = Simulator.run p config model in
  Alcotest.(check int) "executed" 8 s.Simulator.executed;
  Alcotest.(check int) "fetches" 8 s.Simulator.counts.Account.fetches;
  Alcotest.(check int) "misses = block count" 2 s.Simulator.counts.Account.misses;
  Alcotest.(check int) "cycles" (8 + (2 * model.Cacti.miss_penalty))
    (Simulator.acet s)

let test_loop_trip_counts () =
  let p = Dsl.compile ~name:"loop" [ Dsl.loop 5 [ Dsl.compute 3 ] ] in
  (* per iteration: 3 compute + 1 latch cond; plus 1 return *)
  let s = Simulator.run p config model in
  Alcotest.(check int) "executed" ((5 * 4) + 1) s.Simulator.executed

let test_nested_loop_trip_counts () =
  let p = Dsl.compile ~name:"nest" [ Dsl.loop 3 [ Dsl.loop 4 [ Dsl.compute 1 ] ] ] in
  (* inner: 4*(1+1) per outer iteration; outer latch: 1 per iteration; return *)
  let s = Simulator.run p config model in
  Alcotest.(check int) "executed" ((3 * ((4 * 2) + 1)) + 1) s.Simulator.executed

let test_determinism () =
  let p = Ucp_workloads.Suite.find "qurt" in
  let a = Simulator.run ~seed:5 p config model in
  let b = Simulator.run ~seed:5 p config model in
  Alcotest.(check int) "same cycles" (Simulator.acet a) (Simulator.acet b);
  Alcotest.(check int) "same misses" a.Simulator.counts.Account.misses
    b.Simulator.counts.Account.misses

let test_seed_changes_bernoulli_paths () =
  let p =
    Dsl.compile ~name:"b"
      [ Dsl.loop 50 [ Dsl.if_ ~p:0.5 [ Dsl.compute 9 ] [ Dsl.compute 1 ] ] ]
  in
  let a = Simulator.run ~seed:1 p config model in
  let b = Simulator.run ~seed:2 p config model in
  Alcotest.(check bool) "different paths" true
    (a.Simulator.executed <> b.Simulator.executed)

let test_every_model_alternates () =
  (* if_every 2: taken on the first of every 2 executions *)
  let p =
    Dsl.compile ~name:"e" [ Dsl.loop 10 [ Dsl.if_every 2 [ Dsl.compute 5 ] [ Dsl.compute 1 ] ] ]
  in
  let s = Simulator.run p config model in
  (* 5 taken (5 instrs + jump) and 5 not (1 instr, fallthrough join) *)
  let expected = 10 * 2 (* cond+latch *) + (5 * 6) + (5 * 1) + 1 in
  Alcotest.(check int) "alternation" expected s.Simulator.executed

let test_max_steps_guard () =
  let p =
    Program.make ~name:"inf" ~entry:0
      [|
        {
          Program.spec_body = 1;
          spec_term =
            Program.S_cond
              { taken = 0; fallthrough = 1; model = Ucp_isa.Branch_model.Always_taken };
          spec_bound = Some 10;
        };
        { Program.spec_body = 0; spec_term = Program.S_return; spec_bound = None };
      |]
  in
  Alcotest.(check bool) "diverging branch detected" true
    (try
       ignore (Simulator.run ~max_steps:1000 p config model);
       false
     with Simulator.Step_limit_exceeded { program = "inf"; limit = 1000 } as e ->
       Ucp_testlib.contains ~substring:"Step_limit_exceeded: inf exceeded 1000"
         (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* software prefetch port *)

let test_effective_prefetch_hides_latency () =
  (* prefetch the last block early; a cache large enough to hold the
     whole program keeps the prefetched block alive until its use *)
  let roomy = Config.make ~assoc:2 ~block_bytes:16 ~capacity:256 in
  let p = Dsl.compile ~name:"pf" [ Dsl.compute 20 ] in
  let last_uid = 19 in
  let base = Simulator.run p roomy model in
  let p', _ = Program.insert_prefetch p ~block:0 ~pos:0 ~target_uid:last_uid in
  let s = Simulator.run p' roomy model in
  Alcotest.(check int) "one prefetch executed" 1 s.Simulator.executed_prefetches;
  Alcotest.(check int) "one dram read moved to the port" 1
    s.Simulator.counts.Account.prefetch_dram_reads;
  Alcotest.(check int) "one fewer demand miss"
    (base.Simulator.counts.Account.misses - 1)
    s.Simulator.counts.Account.misses;
  Alcotest.(check bool) "cycles improved" true (Simulator.acet s < Simulator.acet base)

let test_late_prefetch_stalls () =
  (* issue a prefetch for the instruction at a memory-block boundary
     from the slot just before it: zero slots elapse between issue and
     use, so the demand access stalls for the full latency (but never
     more than a genuine miss would) *)
  let p = Dsl.compile ~name:"late" [ Dsl.compute 30 ] in
  let layout = Ucp_isa.Layout.make p ~block_bytes:16 in
  let boundary_pos =
    let found = ref None in
    for pos = 1 to 29 do
      if
        !found = None
        && Ucp_isa.Layout.mem_block layout ~block:0 ~pos
           <> Ucp_isa.Layout.mem_block layout ~block:0 ~pos:(pos - 1)
      then found := Some pos
    done;
    Option.get !found
  in
  let target_uid = (Program.slot_instr p ~block:0 ~pos:boundary_pos).Ucp_isa.Instr.uid in
  let p', _ = Program.insert_prefetch p ~block:0 ~pos:boundary_pos ~target_uid in
  let s = Simulator.run p' config model in
  Alcotest.(check int) "stalls for the full latency"
    model.Cacti.prefetch_latency s.Simulator.late_prefetch_stall_cycles;
  Alcotest.(check bool) "still cheaper than a miss" true
    (s.Simulator.late_prefetch_stall_cycles <= model.Cacti.miss_penalty)

let test_prefetch_of_resident_block_is_free () =
  let p = Dsl.compile ~name:"res" [ Dsl.compute 6 ] in
  (* target the first instruction: its block is resident by then *)
  let p', _ = Program.insert_prefetch p ~block:0 ~pos:3 ~target_uid:0 in
  let s = Simulator.run p' config model in
  Alcotest.(check int) "no dram read" 0 s.Simulator.counts.Account.prefetch_dram_reads

(* A prefetch whose target uid is gone from the program fails the run,
   in a fully locked cache too: the layout rejects it. *)
let test_dangling_prefetch_target () =
  let p = Dsl.compile ~name:"dg" [ Dsl.compute 8 ] in
  let p, _ = Program.insert_prefetch p ~block:0 ~pos:1 ~target_uid:5 in
  let p = Program.remove_uid p 5 in
  List.iter
    (fun locked ->
      Alcotest.(check bool) "Dangling_prefetch_target" true
        (try
           ignore (Simulator.run ?locked p config model);
           false
         with Ucp_isa.Layout.Dangling_prefetch_target 5 as e ->
           Ucp_testlib.contains
             ~substring:"Layout.Dangling_prefetch_target: a prefetch targets uid 5"
             (Printexc.to_string e)))
    [ None; Some [] ]

(* ------------------------------------------------------------------ *)
(* the re-access shortcut: a fetch of the line the previous demand
   fetch read counts a hit without touching the cache, so a fill
   between the two fetches must make the simulator forget that line.
   In a one-set direct-mapped cache every fill of another line evicts
   the one resident line, and the fetch after it misses. *)

let one_line = Config.make ~assoc:1 ~block_bytes:16 ~capacity:16

(* [(block, pos), hit] of every demand fetch of a run, in order *)
let fetch_verdicts run =
  let verdicts = ref [] in
  let on_fetch ~block ~pos ~hit = verdicts := ((block, pos), hit) :: !verdicts in
  ignore (run ~on_fetch);
  List.rev !verdicts

let test_sw_prefetch_between_fetches_of_a_line () =
  let p = Dsl.compile ~name:"refill" [ Dsl.compute 12 ] in
  let last_uid = 12 in
  (* the first slot [k] for a prefetch of the return whose successor
     [k + 1] shares its line, a line the return is not in *)
  let p', k =
    let rec find k =
      let p', _ = Program.insert_prefetch p ~block:0 ~pos:k ~target_uid:last_uid in
      let layout = Ucp_isa.Layout.make p' ~block_bytes:one_line.Config.block_bytes in
      let line pos = Ucp_isa.Layout.mem_block layout ~block:0 ~pos in
      if line k = line (k + 1) && line k <> line (Program.slots p' 0 - 1) then (p', k)
      else find (k + 1)
    in
    find 0
  in
  let verdicts =
    fetch_verdicts (fun ~on_fetch -> Simulator.run ~on_fetch p' one_line model)
  in
  Alcotest.(check (option bool)) "the fetch after the fill misses" (Some false)
    (List.assoc_opt (0, k + 1) verdicts)

let test_hw_prefetch_between_fetches_of_a_line () =
  let p = Dsl.compile ~name:"refill" [ Dsl.compute 12 ] in
  let layout = Ucp_isa.Layout.make p ~block_bytes:one_line.Config.block_bytes in
  let line (_, pos) = Ucp_isa.Layout.mem_block layout ~block:0 ~pos in
  (* next-line prefetches line b + 1 at every fetch of line b, and its
     fill evicts b: the first fetch of a line hits, having been
     prefetched, and every later fetch of it misses *)
  let verdicts =
    fetch_verdicts (fun ~on_fetch ->
        Simulator.run ~hw:(Hw.next_line_always ()) ~on_fetch p one_line model)
  in
  let rec repeats = function
    | (a, _) :: ((b, hit) :: _ as tl) ->
      if line a = line b then hit :: repeats tl else repeats tl
    | _ -> []
  in
  Alcotest.(check (list bool)) "re-reads of a line miss" (List.init 9 (fun _ -> false))
    (repeats verdicts)

(* ------------------------------------------------------------------ *)
(* locked mode *)

let test_locked_mode () =
  let p = Dsl.compile ~name:"lk" [ Dsl.loop 10 [ Dsl.compute 7 ] ] in
  let layout = Ucp_isa.Layout.make p ~block_bytes:16 in
  let blocks = Ucp_isa.Layout.mem_block_ids layout in
  (* everything locked: all hits *)
  let s_all = Simulator.run ~locked:blocks p config model in
  Alcotest.(check int) "all hit" 0 s_all.Simulator.counts.Account.misses;
  (* nothing locked: all misses *)
  let s_none = Simulator.run ~locked:[] p config model in
  Alcotest.(check int) "all miss" s_none.Simulator.counts.Account.fetches
    s_none.Simulator.counts.Account.misses

(* ------------------------------------------------------------------ *)
(* hardware prefetchers *)

let test_next_line_helps_streaming () =
  let p = Dsl.compile ~name:"stream" [ Dsl.compute 200 ] in
  let base = Simulator.run p config model in
  let s = Simulator.run ~hw:(Hw.next_line_always ()) p config model in
  Alcotest.(check bool) "fewer demand misses" true
    (s.Simulator.counts.Account.misses < base.Simulator.counts.Account.misses);
  Alcotest.(check bool) "hw issued prefetches" true (s.Simulator.hw_issued > 0)

let test_next_line_tagged_issues_once_per_block () =
  let p = Dsl.compile ~name:"tag" [ Dsl.loop 5 [ Dsl.compute 7 ] ] in
  let s = Simulator.run ~hw:(Hw.next_line_tagged ()) p config model in
  (* the loop touches the same blocks every iteration: the tag bit
     limits issues to roughly one per distinct block *)
  let layout = Ucp_isa.Layout.make p ~block_bytes:16 in
  Alcotest.(check bool) "bounded issues" true
    (s.Simulator.hw_issued <= Ucp_isa.Layout.code_mem_blocks layout + 1)

let test_rpt_learns_branch_target () =
  let p =
    Dsl.compile ~name:"rpt" [ Dsl.loop 20 [ Dsl.compute 2; Dsl.Far [ Dsl.compute 6 ] ] ]
  in
  let s =
    Simulator.run ~hw:(Hw.target_rpt ~size:16 ~block_bytes:16) p config model
  in
  ignore s.Simulator.hw_issued;
  (* conditional latch is the only Cond; rpt learns its target after the
     first taken execution *)
  Alcotest.(check bool) "rpt runs" true (s.Simulator.executed > 0)

let test_next_n_line_deeper_coverage () =
  let p = Dsl.compile ~name:"n2" [ Dsl.compute 200 ] in
  let one = Simulator.run ~hw:(Hw.next_n_line 1) p config model in
  let two = Simulator.run ~hw:(Hw.next_n_line 2) p config model in
  Alcotest.(check bool) "deeper prefetch, no more misses on streaming" true
    (two.Simulator.counts.Account.misses <= one.Simulator.counts.Account.misses)

let test_wrong_path_issues_both () =
  (* wrong-path prefetches both target and fall-through once the RPT
     has learned the branch *)
  let p =
    Dsl.compile ~name:"wp" [ Dsl.loop 20 [ Dsl.compute 2; Dsl.if_ ~p:0.5 [ Dsl.compute 5 ] [ Dsl.compute 4 ] ] ]
  in
  let rpt = Simulator.run ~hw:(Hw.target_rpt ~size:16 ~block_bytes:16) p config model in
  let wp = Simulator.run ~hw:(Hw.wrong_path ~size:16 ~block_bytes:16) p config model in
  Alcotest.(check bool) "wrong-path issues at least as many" true
    (wp.Simulator.hw_issued >= rpt.Simulator.hw_issued)

let test_locked_ignores_software_prefetch () =
  let p = Dsl.compile ~name:"lp" [ Dsl.compute 8 ] in
  let p', _ = Program.insert_prefetch p ~block:0 ~pos:0 ~target_uid:7 in
  let s = Simulator.run ~locked:[] p' config model in
  Alcotest.(check int) "no prefetch traffic under locking" 0
    s.Simulator.counts.Account.prefetch_dram_reads

let test_bernoulli_statistics () =
  let p =
    Dsl.compile ~name:"bern"
      [ Dsl.loop 400 [ Dsl.if_ ~p:0.25 [ Dsl.compute 3 ] [ Dsl.compute 1 ] ] ]
  in
  let s = Simulator.run ~seed:7 p config model in
  (* executed = 400*(cond) + taken*(3+jump) + not*(1) + latch... just
     check the mix lands between the all-taken and never-taken extremes *)
  let never = 400 * 2 + (400 * 1) + 1 in
  let always = 400 * 2 + (400 * 4) + 1 in
  Alcotest.(check bool) "within extremes" true
    (s.Simulator.executed > never && s.Simulator.executed < always)

let prop_hw_prefetch_never_increases_misses_on_straightline =
  QCheck2.Test.make ~name:"next-line never hurts pure streaming" ~count:50
    QCheck2.Gen.(int_range 20 300)
    (fun n ->
      let p = Dsl.compile ~name:"s" [ Dsl.compute n ] in
      let base = Simulator.run p config model in
      let s = Simulator.run ~hw:(Hw.next_line_always ()) p config model in
      s.Simulator.counts.Account.misses <= base.Simulator.counts.Account.misses)

let test_fifo_policy_runs () =
  let p = Ucp_workloads.Suite.find "crc" in
  let lru = Simulator.run p config model in
  let fifo = Simulator.run ~policy:Ucp_cache.Concrete.Fifo p config model in
  Alcotest.(check int) "same instruction stream" lru.Simulator.executed fifo.Simulator.executed;
  Alcotest.(check bool) "fifo not better than lru here" true
    (fifo.Simulator.counts.Account.misses >= lru.Simulator.counts.Account.misses)

(* ------------------------------------------------------------------ *)
(* branch oracle: the witness-replay hook overrides every conditional *)

let test_branch_oracle_forces_path () =
  (* a single conditional, no loop latch: a constant oracle picks one
     arm without ever consulting the seeded branch model *)
  let p =
    Dsl.compile ~name:"bo" [ Dsl.if_ ~p:0.5 [ Dsl.compute 9 ] [ Dsl.compute 1 ] ]
  in
  let forced decision =
    Simulator.run ~branch_oracle:(fun _block -> decision) p config model
  in
  let all_taken = forced true and none_taken = forced false in
  (* the then-branch is 9 instructions, the else-branch 1: forcing the
     oracle must change the instruction stream deterministically *)
  Alcotest.(check bool) "taken path is longer" true
    (all_taken.Simulator.executed > none_taken.Simulator.executed);
  (* the oracle overrides the seeded Bernoulli model entirely: any two
     seeds agree once the oracle decides *)
  let again = forced true in
  Alcotest.(check int) "oracle makes the run deterministic"
    all_taken.Simulator.executed again.Simulator.executed

let test_witness_replay_certifies () =
  (* the full replay check, on the simulator's own test config: the
     analysis witness drives the simulator and the bound holds, for
     each policy *)
  let p =
    Dsl.compile ~name:"wr"
      [ Dsl.compute 3; Dsl.loop 6 [ Dsl.if_ [ Dsl.compute 5 ] [ Dsl.compute 2 ] ] ]
  in
  List.iter
    (fun policy ->
      let w = Ucp_wcet.Wcet.compute ~with_may:true ~policy p config model in
      match Ucp_verify.replay_witness w with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "%s: %s" (Ucp_policy.to_string policy) msg)
    [ Ucp_policy.Lru; Ucp_policy.Fifo; Ucp_policy.Plru ]

let prop_cycles_consistent =
  QCheck2.Test.make ~name:"cycle count >= executed instructions" ~count:150
    ~print:Ucp_testlib.print_program Ucp_testlib.gen_program (fun p ->
      let s = Simulator.run p config model in
      Simulator.acet s >= s.Simulator.executed)

let prop_counts_add_up =
  QCheck2.Test.make ~name:"hits + misses = fetches" ~count:150
    ~print:Ucp_testlib.print_program Ucp_testlib.gen_program (fun p ->
      let s = Simulator.run p config model in
      s.Simulator.counts.Account.hits + s.Simulator.counts.Account.misses
      = s.Simulator.counts.Account.fetches)

(* ------------------------------------------------------------------ *)
(* the run loop against the per-slot reference: each run of re-reads is
   charged in one step, which must give the same stats and the same
   [on_fetch] stream as fetching every slot, in every mode *)

let prop_runs_match_per_slot_reference =
  QCheck2.Test.make ~name:"run loop matches the per-slot reference" ~count:100
    ~print:(fun (p, c) -> Ucp_testlib.print_config c ^ "\n" ^ Ucp_testlib.print_program p)
    QCheck2.Gen.(pair Ucp_testlib.gen_program Ucp_testlib.gen_config)
    (fun (p, c) ->
      let bb = Ucp_prefetch.Baselines.bb_start p c model in
      let same program ~policy ?hw ?locked ?pinned () =
        let observed run =
          let stream = ref [] in
          let on_fetch ~block ~pos ~hit = stream := (block, pos, hit) :: !stream in
          let stats : Simulator.stats = run ~on_fetch in
          (stats, !stream)
        in
        let hw () = Option.map (fun make -> make ()) hw in
        observed (fun ~on_fetch ->
            Simulator.run ~policy ?hw:(hw ()) ?locked ?pinned ~on_fetch program c model)
        = observed (fun ~on_fetch ->
            Ucp_testlib.Reference_sim.run ~policy ?hw:(hw ()) ?locked ?pinned ~on_fetch
              program c model)
      in
      List.for_all
        (fun program ->
          let layout = Ucp_isa.Layout.make program ~block_bytes:c.Config.block_bytes in
          let blocks_where keep = List.filter keep (Ucp_isa.Layout.mem_block_ids layout) in
          List.for_all
            (fun policy ->
              same program ~policy ()
              && same program ~policy ~locked:(blocks_where (fun mb -> mb mod 3 = 0)) ()
              && same program ~policy ~pinned:(blocks_where (fun mb -> mb mod 4 = 1)) ()
              && List.for_all
                   (fun (_, make) -> same program ~policy ~hw:make ())
                   (Hw.all_schemes ~block_bytes:c.Config.block_bytes))
            [ Ucp_policy.Lru; Ucp_policy.Fifo; Ucp_policy.Plru ])
        [ p; bb ])

(* ------------------------------------------------------------------ *)
(* simulator output pinned: every stats field and the [on_fetch]
   (block, pos, hit) stream, digested over the suite below 2000 slots
   at four configurations (256 B and 512 B direct-mapped, 8 KiB 2- and
   4-way) under the three policies, for each original program and its
   BB-start version, whose prefetches make fills, in-flight stalls and
   late-prefetch cycles occur.  These programs fit in 8 KiB, so no
   policy evicts there; a 256 B 4-way configuration adds the runs where
   the policies differ.  Extra runs over the BB-start versions cover
   every hardware prefetcher, locked and pinned ways and a branch
   oracle.  Any change to the slot loop must leave all of it
   byte-identical. *)

let pin_programs =
  List.filter_map
    (fun (_, p) -> if Program.total_slots p < 2000 then Some p else None)
    Ucp_workloads.Suite.all

let pin_config id = List.assoc id Config.paper_configs
let pin_configs = List.map pin_config [ "k4"; "k10"; "k35"; "k36"; "k6" ]
let pin_model c = Cacti.model c Ucp_energy.Tech.nm45

(* (program, config) pairs, each original followed by its BB-start
   version *)
let pin_cases () =
  List.concat_map
    (fun p ->
      List.concat_map
        (fun c -> [ (p, c); (Ucp_prefetch.Baselines.bb_start p c (pin_model c), c) ])
        pin_configs)
    pin_programs

(* One run: its stats fields, then the MD5 of its fetch stream. *)
let pin_run buf run =
  let fetches = Buffer.create 65536 in
  let on_fetch ~block ~pos ~hit =
    Buffer.add_int64_le fetches
      (Int64.of_int ((block lsl 32) lor (pos lsl 1) lor Bool.to_int hit))
  in
  let s = run ~on_fetch in
  let c = s.Simulator.counts in
  Printf.bprintf buf "%d %d %d %d %d %d %d %d %d %d %h %s\n" c.Account.fetches
    c.Account.hits c.Account.misses c.Account.prefetch_dram_reads
    c.Account.prefetch_fills c.Account.cycles s.Simulator.executed
    s.Simulator.executed_prefetches s.Simulator.hw_issued
    s.Simulator.late_prefetch_stall_cycles s.Simulator.miss_rate
    (Digest.to_hex (Digest.string (Buffer.contents fetches)))

let pin_digest cases run =
  let buf = Buffer.create 65536 in
  List.iter (fun (p, c) -> pin_run buf (run p c)) cases;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Alternates each conditional's decision per execution: every loop
   leaves within two visits of its test, so every program ends. *)
let alternating_oracle () =
  let seen = Hashtbl.create 16 in
  fun block ->
    let n = Option.value ~default:0 (Hashtbl.find_opt seen block) in
    Hashtbl.replace seen block (n + 1);
    n mod 2 = 0

let test_simulator_output_pinned () =
  let cases = pin_cases () in
  let k10 = pin_config "k10" and k36 = pin_config "k36" in
  let extra =
    List.filter (fun (p, c) -> c = k10 && Program.prefetch_count p > 0) cases
  in
  let blocks_where p c keep =
    let layout = Ucp_isa.Layout.make p ~block_bytes:c.Config.block_bytes in
    List.filter keep (Ucp_isa.Layout.mem_block_ids layout)
  in
  (* k36 without one of its four ways: the unlocked rest of a
     one-way-locked cache *)
  let unlocked =
    Config.make ~assoc:3 ~block_bytes:k36.Config.block_bytes
      ~capacity:(3 * k36.Config.block_bytes * k36.Config.sets)
  in
  let runs =
    List.map
      (fun policy ->
        ( Ucp_policy.to_string policy,
          pin_digest cases (fun p c ~on_fetch ->
              Simulator.run ~policy ~on_fetch p c (pin_model c)) ))
      [ Ucp_policy.Lru; Ucp_policy.Fifo; Ucp_policy.Plru ]
    @ List.map
        (fun (name, make) ->
          ( "hw " ^ name,
            pin_digest extra (fun p c ~on_fetch ->
                Simulator.run ~hw:(make ()) ~on_fetch p c (pin_model c)) ))
        (Hw.all_schemes ~block_bytes:k10.Config.block_bytes)
    @ [
        ( "locked",
          pin_digest extra (fun p c ~on_fetch ->
              let locked = blocks_where p c (fun mb -> mb mod 3 = 0) in
              Simulator.run ~locked ~on_fetch p c (pin_model c)) );
        ( "pinned",
          pin_digest
            (List.filter (fun (p, c) -> c = k36 && Program.prefetch_count p > 0) cases)
            (fun p c ~on_fetch ->
              let pinned = blocks_where p c (fun mb -> mb mod 5 = 0) in
              Simulator.run ~policy:Ucp_policy.Fifo ~pinned ~cache_config:unlocked
                ~on_fetch p c (pin_model c)) );
        ( "branch oracle",
          pin_digest extra (fun p c ~on_fetch ->
              Simulator.run ~branch_oracle:(alternating_oracle ()) ~on_fetch p c
                (pin_model c)) );
      ]
  in
  let expected =
    [
      ("lru", "c8bcdda10db527ddd069af6e6cc203dd");
      ("fifo", "d0a3ee78608d1410dc49d4da39f9c7ed");
      ("plru", "9e2baaf6b370b66ef0fee494c674258f");
      ("hw none", "2ce97cae71f21d96cbd9cd32096e8abc");
      ("hw next-line-always", "2d278acc06dd860c767b14eaa4a41195");
      ("hw next-line-on-miss", "ff3bdbf8fa47c5809649504402b0a9af");
      ("hw next-line-tagged", "de2ee90dfe3b4c2deaabfa5d194ee44f");
      ("hw next-2-line", "5b72e982641243c396649d5807d5e042");
      ("hw target-rpt", "3be14e4372c89cbff0aabca42ce9c4e2");
      ("hw wrong-path", "5a4ce3dfcb618b2b47d3542525556601");
      ("locked", "4aaf6f865b04a91383c5f9a64feda56f");
      ("pinned", "0f69b3a6c2825f374b7ef46b0f4ec07d");
      ("branch oracle", "eb256cdbf60f3f5012e8ce89442b09d3");
    ]
  in
  Alcotest.(check (list (pair string string))) "digests" expected runs

let () =
  Alcotest.run "ucp_sim"
    [
      ( "execution",
        [
          Alcotest.test_case "straightline counts" `Quick test_straightline_exact_counts;
          Alcotest.test_case "loop trips" `Quick test_loop_trip_counts;
          Alcotest.test_case "nested trips" `Quick test_nested_loop_trip_counts;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_bernoulli_paths;
          Alcotest.test_case "every-k model" `Quick test_every_model_alternates;
          Alcotest.test_case "max steps" `Quick test_max_steps_guard;
        ] );
      ( "prefetch port",
        [
          Alcotest.test_case "effective prefetch" `Quick
            test_effective_prefetch_hides_latency;
          Alcotest.test_case "late prefetch" `Quick test_late_prefetch_stalls;
          Alcotest.test_case "dangling target" `Quick test_dangling_prefetch_target;
          Alcotest.test_case "resident target" `Quick
            test_prefetch_of_resident_block_is_free;
        ] );
      ( "re-access",
        [
          Alcotest.test_case "sw prefetch between fetches of a line" `Quick
            test_sw_prefetch_between_fetches_of_a_line;
          Alcotest.test_case "hw prefetch between fetches of a line" `Quick
            test_hw_prefetch_between_fetches_of_a_line;
        ] );
      ("locked", [ Alcotest.test_case "locked mode" `Quick test_locked_mode ]);
      ( "hardware",
        [
          Alcotest.test_case "next-line streaming" `Quick test_next_line_helps_streaming;
          Alcotest.test_case "tagged" `Quick test_next_line_tagged_issues_once_per_block;
          Alcotest.test_case "rpt" `Quick test_rpt_learns_branch_target;
          Alcotest.test_case "next-n deeper" `Quick test_next_n_line_deeper_coverage;
          Alcotest.test_case "wrong-path" `Quick test_wrong_path_issues_both;
          Alcotest.test_case "locked ignores sw prefetch" `Quick
            test_locked_ignores_software_prefetch;
          Alcotest.test_case "bernoulli statistics" `Quick test_bernoulli_statistics;
          QCheck_alcotest.to_alcotest prop_hw_prefetch_never_increases_misses_on_straightline;
        ] );
      ( "policy",
        [ Alcotest.test_case "fifo runs" `Quick test_fifo_policy_runs ] );
      ( "witness",
        [
          Alcotest.test_case "branch oracle" `Quick test_branch_oracle_forces_path;
          Alcotest.test_case "replay certifies" `Quick test_witness_replay_certifies;
        ] );
      ( "invariants",
        [
          QCheck_alcotest.to_alcotest prop_cycles_consistent;
          QCheck_alcotest.to_alcotest prop_counts_add_up;
          QCheck_alcotest.to_alcotest prop_runs_match_per_slot_reference;
          Alcotest.test_case "simulator output pinned" `Quick
            test_simulator_output_pinned;
        ] );
    ]
