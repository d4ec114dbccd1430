(* Tests for Ucp_refine: the exact classification refinement and the
   quantitative non-LRU bounds (ISSUE 8).

   The centrepiece is the per-policy soundness cross-validation: every
   slot the exploration reclassifies to always-hit / always-miss is
   checked against the concrete simulator under the same policy — a
   refined AH slot must never miss, a refined AM slot must never hit.
   Around it: budget-exhaustion determinism (a starved exploration
   leaves its references unrefined, identically on every run, and stays
   sound), full mode's cross-check firing on a planted contradiction,
   the checkpoint-fingerprint refine axis (journals swept under
   different modes never mix), the lossless record round-trip of the
   refine summary, the corrupt-refine fault being caught by the audit's
   digest recomputation, the set-at-a-time product sweep against the
   pairwise breadth-first search it replaced, the quantitative bound
   against the LRU reference computation, and QCheck properties for
   the concrete competitiveness inequalities behind
   {!Ucp_refine.Quantitative}. *)

module Mode = Ucp_refine.Mode
module Explore = Ucp_refine.Explore
module Product = Ucp_refine.Product
module Quantitative = Ucp_refine.Quantitative
module Policy = Ucp_policy
module Config = Ucp_cache.Config
module Concrete = Ucp_cache.Concrete
module Wcet = Ucp_wcet.Wcet
module Analysis = Ucp_wcet.Analysis
module Classification = Ucp_wcet.Classification
module Simulator = Ucp_sim.Simulator
module Vivu = Ucp_cfg.Vivu
module Program = Ucp_isa.Program
module Layout = Ucp_isa.Layout
module Suite = Ucp_workloads.Suite
module Tech = Ucp_energy.Tech
module Pipeline = Ucp_core.Pipeline
module Checkpoint = Ucp_core.Checkpoint
module Experiments = Ucp_core.Experiments
module Outcome = Ucp_core.Outcome

let model = Ucp_testlib.tiny_model
let paper_config id = List.assoc id Config.paper_configs

(* Two of the ci.sh smoke grid's configurations: caches small enough
   that the must/may analysis leaves NC references to reclaim. *)
let test_configs = [ paper_config "k2"; paper_config "k5" ]
let test_programs = [ "fft1"; "crc" ]

(* ------------------------------------------------------------------ *)
(* mode identifiers *)

let test_mode_roundtrip () =
  List.iter
    (fun m ->
      match Mode.of_string (Mode.to_string m) with
      | Ok m' -> Alcotest.(check bool) (Mode.to_string m) true (m = m')
      | Error msg -> Alcotest.fail msg)
    Mode.all;
  Alcotest.(check bool) "case-insensitive" true (Mode.of_string "NC" = Ok Mode.Nc);
  Alcotest.(check bool) "unknown rejected" true
    (match Mode.of_string "some" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* refined-classification soundness vs the concrete simulator *)

(* Meet the classifications over every VIVU context of a static slot,
   exactly as in test_policy: the concrete trace does not know which
   context it is in, so only a slot that is AH (resp. AM) in every
   context may claim it never misses (resp. never hits). *)
let meet_classifications analysis program =
  let vivu = Analysis.vivu analysis in
  let tbl = Hashtbl.create 997 in
  for node = 0 to Vivu.node_count vivu - 1 do
    let nd = Vivu.node vivu node in
    let b = nd.Vivu.block in
    for pos = 0 to Program.slots program b - 1 do
      let c = Analysis.classif analysis ~node ~pos in
      match Hashtbl.find_opt tbl (b, pos) with
      | None -> Hashtbl.replace tbl (b, pos) c
      | Some prev ->
        if prev <> c then
          Hashtbl.replace tbl (b, pos) Classification.Not_classified
    done
  done;
  tbl

let refined_violations ~policy ~seed program config (w' : Wcet.t) =
  let tbl = meet_classifications w'.Wcet.analysis program in
  let violations = ref [] in
  let on_fetch ~block ~pos ~hit =
    match Hashtbl.find_opt tbl (block, pos) with
    | Some Classification.Always_hit when not hit ->
      violations :=
        Printf.sprintf "refined AH slot (%d,%d) missed" block pos :: !violations
    | Some Classification.Always_miss when hit ->
      violations :=
        Printf.sprintf "refined AM slot (%d,%d) hit" block pos :: !violations
    | _ -> ()
  in
  ignore (Simulator.run ~seed ~policy ~on_fetch program config model);
  !violations

let check_summary_arithmetic name (s : Explore.summary) w =
  Alcotest.(check int)
    (name ^ ": nc_after = nc_before - gained")
    (s.Explore.s_nc_before - s.Explore.s_ah_gained - s.Explore.s_am_gained)
    s.Explore.s_nc_after;
  Alcotest.(check bool)
    (name ^ ": refined tau never above the abstract tau")
    true
    (s.Explore.s_tau <= Wcet.tau_with_residual w)

let test_refined_soundness policy () =
  List.iter
    (fun name ->
      let program = Suite.find name in
      List.iter
        (fun config ->
          let w = Wcet.compute ~with_may:true ~policy program config model in
          match Explore.run ~mode:Mode.Nc w with
          | None ->
            Alcotest.fail
              (Printf.sprintf "%s: refinement skipped a plain program" name)
          | Some (s, w') ->
            check_summary_arithmetic name s w;
            Alcotest.(check int)
              (name ^ ": refined tau matches refined wcet")
              s.Explore.s_tau
              (Wcet.tau_with_residual w');
            List.iter
              (fun seed ->
                match refined_violations ~policy ~seed program config w' with
                | [] -> ()
                | v ->
                  Alcotest.fail
                    (Printf.sprintf "%s under %s @%s seed %d: %s" name
                       (Policy.to_string policy) (Config.id config) seed
                       (String.concat "; " v)))
              [ 1; 42 ])
        test_configs)
    test_programs

(* Reclaiming NC is the refinement's reason to exist: it must
   reclassify under at least two policies on the test grid, so the grid
   exercises reclassification rather than vacuously passing. *)
let test_strict_reduction () =
  let reduced =
    List.filter
      (fun policy ->
        List.exists
          (fun name ->
            let program = Suite.find name in
            List.exists
              (fun config ->
                let w =
                  Wcet.compute ~with_may:true ~policy program config model
                in
                match Explore.run ~mode:Mode.Nc w with
                | None -> false
                | Some (s, _) ->
                  s.Explore.s_nc_before > 0
                  && s.Explore.s_nc_after < s.Explore.s_nc_before)
              test_configs)
          test_programs)
      Policy.all
  in
  Alcotest.(check bool)
    (Printf.sprintf "NC strictly reduced for >= 2 policies (got %d: %s)"
       (List.length reduced)
       (String.concat "," (List.map Policy.to_string reduced)))
    true
    (List.length reduced >= 2)

(* Full mode explores every reference and cross-checks the abstract
   classification; on these workloads it must agree, not raise. *)
let test_full_mode_agrees () =
  let program = Suite.find "crc" in
  let config = paper_config "k2" in
  List.iter
    (fun policy ->
      let w = Wcet.compute ~with_may:true ~policy program config model in
      match Explore.run ~mode:Mode.Full w with
      | None -> Alcotest.fail "full refinement skipped a plain program"
      | Some (s, _) ->
        Alcotest.(check bool)
          (Policy.to_string policy ^ ": full mode reports its mode")
          true
          (s.Explore.s_mode = Mode.Full)
      | exception Explore.Unsound msg ->
        Alcotest.fail ("full cross-check contradiction: " ^ msg))
    Policy.all

(* Full mode's cross-check fires.  One wrong verdict is planted at a
   time with [Analysis.override_classif], on a loop slot (a context of
   multiplicity > 1, past its block's first slot) rather than on a
   cold first access: Always_hit where the exploration proves
   Always_miss or finds both outcomes, Always_miss where it proves
   Always_hit or finds both.  [Mode.Full] must raise {!Explore.Unsound}
   naming that slot and the policy.  The product exploration reads no
   classification, so planting one changes no exploration verdict, and
   the unplanted analysis passes full mode (the test above): the
   planted slot is the run's only contradiction. *)
let test_full_mode_catches_planted () =
  let program = Suite.find "crc" in
  let config = paper_config "k2" in
  List.iter
    (fun policy ->
      let pname = Policy.to_string policy in
      let w = Wcet.compute ~with_may:true ~policy program config model in
      let vivu = Analysis.vivu w.Wcet.analysis in
      let verdicts =
        match Explore.run ~mode:Mode.Nc w with
        | Some (s, w') when not s.Explore.s_budget_hit -> w'.Wcet.analysis
        | _ -> Alcotest.failf "%s: no complete exploration to plant against" pname
      in
      (* the first loop slot whose exploration verdict is [cls] *)
      let loop_slot cls =
        let found = ref None in
        for node = Vivu.node_count vivu - 1 downto 0 do
          if Vivu.mult vivu node > 1 then
            for pos = Program.slots program (Vivu.node vivu node).Vivu.block - 1 downto 1 do
              if Analysis.classif verdicts ~node ~pos = cls then found := Some (node, pos)
            done
        done;
        !found
      in
      let plant cls ~on ~expected =
        match List.find_map loop_slot on with
        | None -> Alcotest.failf "%s: no loop slot to plant %s on" pname expected
        | Some (node, pos) -> (
          let a = Analysis.override_classif w.Wcet.analysis [ (node, pos, cls) ] in
          let msg =
            Printf.sprintf "abstract %s at (%d,%d) under %s is not an exploration %s"
              (match cls with
               | Classification.Always_hit -> "Always_hit"
               | _ -> "Always_miss")
              node pos pname expected
          in
          match Explore.run ~mode:Mode.Full (Wcet.of_analysis a w.Wcet.model) with
          | exception Explore.Unsound got -> Alcotest.(check string) msg msg got
          | _ -> Alcotest.failf "%s: planted contradiction not caught" msg)
      in
      plant Classification.Always_hit
        ~on:[ Classification.Always_miss; Classification.Not_classified ]
        ~expected:"all-hit";
      plant Classification.Always_miss
        ~on:[ Classification.Always_hit; Classification.Not_classified ]
        ~expected:"all-miss")
    Policy.all

(* ------------------------------------------------------------------ *)
(* budget exhaustion: deterministic, degraded, still sound *)

let test_budget_exhaustion () =
  let budget_hit = ref false in
  List.iter
    (fun policy ->
      let program = Suite.find "fft1" in
      let config = paper_config "k2" in
      let w = Wcet.compute ~with_may:true ~policy program config model in
      let run () = Explore.run ~budget:2 ~mode:Mode.Nc w in
      match (run (), run ()) with
      | Some (s1, w1), Some (s2, _) ->
        Alcotest.(check bool)
          (Policy.to_string policy ^ ": starved summaries identical")
          true (s1 = s2);
        Alcotest.(check string)
          (Policy.to_string policy ^ ": starved digests identical")
          s1.Explore.s_digest s2.Explore.s_digest;
        check_summary_arithmetic (Policy.to_string policy) s1 w;
        if s1.Explore.s_budget_hit then budget_hit := true;
        List.iter
          (fun seed ->
            match refined_violations ~policy ~seed program config w1 with
            | [] -> ()
            | v ->
              Alcotest.fail
                (Printf.sprintf "starved refinement unsound under %s: %s"
                   (Policy.to_string policy)
                   (String.concat "; " v)))
          [ 1; 42 ]
      | None, None -> Alcotest.fail "refinement skipped a plain program"
      | _ -> Alcotest.fail "budgeted exploration is nondeterministic")
    Policy.all;
  Alcotest.(check bool) "a 2-state budget actually starves some set" true
    !budget_hit

(* ------------------------------------------------------------------ *)
(* checkpoint fingerprint: the refine mode is part of the grid identity *)

let test_fingerprint_refine_axis () =
  let programs = [ ("fft1", Suite.find "fft1") ] in
  let configs = [ ("k2", paper_config "k2") ] in
  let techs = [ Tech.nm45 ] in
  let fp m = Checkpoint.fingerprint ~refine:m ~programs ~configs ~techs () in
  Alcotest.(check bool) "nc <> off" true (fp Mode.Nc <> fp Mode.Off);
  Alcotest.(check bool) "full <> nc" true (fp Mode.Full <> fp Mode.Nc);
  Alcotest.(check bool) "full <> off" true (fp Mode.Full <> fp Mode.Off);
  Alcotest.(check string) "deterministic" (fp Mode.Nc) (fp Mode.Nc);
  Alcotest.(check string) "default mode is off" (fp Mode.Off)
    (Checkpoint.fingerprint ~programs ~configs ~techs ());
  (* a journal swept under nc must be rejected when resumed under off *)
  let path = Filename.temp_file "ucp_refine_ckpt" ".jsonl" in
  let j = Checkpoint.start ~path ~fingerprint:(fp Mode.Nc) ~resume:false in
  Checkpoint.close j;
  (match Checkpoint.start ~path ~fingerprint:(fp Mode.Off) ~resume:true with
  | exception
      Checkpoint.Bad_journal { problem = Checkpoint.Fingerprint_mismatch _; _ } ->
    ()
  | j ->
    Checkpoint.close j;
    Sys.remove path;
    Alcotest.fail "journal with a different refine mode was accepted");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* record round-trip: the refine summary survives the journal losslessly *)

let test_record_roundtrip () =
  let program = Suite.find "crc" in
  let config = paper_config "k2" in
  let cmp =
    Pipeline.compare_optimized ~policy:Policy.Fifo ~refine:Mode.Nc program
      config Tech.nm45
  in
  Alcotest.(check bool) "original measurement carries a summary" true
    (cmp.Pipeline.original.Pipeline.refine <> None);
  let r =
    {
      Experiments.program_name = "crc";
      config_id = "k2";
      config;
      tech = Tech.nm45;
      policy = Policy.Fifo;
      original = cmp.Pipeline.original;
      optimized = cmp.Pipeline.optimized;
      prefetches = cmp.Pipeline.prefetches;
      rejected = cmp.Pipeline.rejected;
      audit = cmp.Pipeline.audit;
    }
  in
  match Checkpoint.parse_line (Checkpoint.record_line ~id:"crc:k2:45nm:fifo" r) with
  | None -> Alcotest.fail "record line did not parse back"
  | Some (id, r') ->
    Alcotest.(check string) "id" "crc:k2:45nm:fifo" id;
    Alcotest.(check bool) "original refine summary round-trips" true
      (r'.Experiments.original.Pipeline.refine
      = r.Experiments.original.Pipeline.refine);
    Alcotest.(check bool) "optimized refine summary round-trips" true
      (r'.Experiments.optimized.Pipeline.refine
      = r.Experiments.optimized.Pipeline.refine)

(* ------------------------------------------------------------------ *)
(* corrupt-refine: the audit's digest recomputation must catch the lie *)

let test_corrupt_refine_caught () =
  (* pick a case whose exploration leaves something not proven
     always-hit, so the fault has a reference to lie about *)
  let case =
    List.find_map
      (fun policy ->
        List.find_map
          (fun name ->
            let program = Suite.find name in
            List.find_map
              (fun config ->
                let w =
                  Wcet.compute ~with_may:true ~policy program config model
                in
                match Explore.run ~mode:Mode.Nc w with
                | Some (s, _)
                  when s.Explore.s_am_gained + s.Explore.s_nc_after > 0 ->
                  Some (policy, program, config)
                | _ -> None)
              test_configs)
          test_programs)
      Policy.all
  in
  match case with
  | None -> Alcotest.fail "no candidate case with a corruptible reference"
  | Some (policy, program, config) -> (
    match
      Pipeline.compare_optimized ~policy ~audit:true ~refine:Mode.Nc
        ~corrupt_refine:true program config Tech.nm45
    with
    | exception Outcome.Invariant msg ->
      Alcotest.(check bool)
        ("violation names the refine obligation: " ^ msg)
        true
        (Ucp_testlib.contains ~substring:"refine-original" msg)
    | _ -> Alcotest.fail "corrupt-refine slipped past the audit")

(* ------------------------------------------------------------------ *)
(* exploration output pinned: every summary field (explored states,
   digest and budget demotions included) and the refined
   [tau_with_residual], over the suite below 2000 slots and a fixed set
   of generated programs, each also in its BB-start version so that
   prefetch fills go through the product, at three configurations
   (256 B direct-mapped, 8 KiB 2- and 4-way), under the three policies
   and both refining modes.  A starved run pins where the budget cuts
   the exploration off, and nsichneu and statemate, the two programs
   of 2000 slots or more, are pinned at the two 8 KiB associative
   configurations under every policy.  Any change to how the product
   walks a block must leave all of it byte-identical. *)

let pin_programs =
  List.filter_map
    (fun (_, p) -> if Program.total_slots p < 2000 then Some p else None)
    Suite.all
  @ List.concat_map
      (fun cls ->
        List.init 4 (fun seed -> Ucp_workloads.Generate.program ~seed:(seed + 1) ~cls))
      [ "s"; "m"; "l" ]

let pin_configs = List.map paper_config [ "k4"; "k35"; "k36" ]
let pin_model c = Ucp_energy.Cacti.model c Tech.nm45

let pin_cases () =
  List.concat_map
    (fun p ->
      List.concat_map
        (fun c -> [ (p, c); (Ucp_prefetch.Baselines.bb_start p c (pin_model c), c) ])
        pin_configs)
    pin_programs

let large_pin_cases =
  List.concat_map
    (fun name ->
      List.map (fun k -> (Suite.find name, paper_config k)) [ "k35"; "k36" ])
    [ "nsichneu"; "statemate" ]

let digest_refined buf = function
  | None -> Buffer.add_string buf "none\n"
  | Some ((s : Explore.summary), w') ->
    Printf.bprintf buf "%s %d %d %d %d %d %d %s %d %b %d %s %d\n"
      (Mode.to_string s.Explore.s_mode) s.Explore.s_nc_before s.Explore.s_nc_after
      s.Explore.s_ah_gained s.Explore.s_am_gained s.Explore.s_tau
      s.Explore.s_miss_bound
      (match s.Explore.s_quant with None -> "-" | Some q -> string_of_int q)
      s.Explore.s_states s.Explore.s_budget_hit s.Explore.s_budget_exhausted
      s.Explore.s_digest (Wcet.tau_with_residual w')

let test_exploration_output_pinned () =
  let cases = pin_cases () in
  let runs =
    List.map
      (fun policy ->
        let buf = Buffer.create 65536 in
        List.iter
          (fun (p, c) ->
            let w = Wcet.compute ~with_may:true ~policy p c (pin_model c) in
            List.iter
              (fun mode -> digest_refined buf (Explore.run ~mode w))
              [ Mode.Nc; Mode.Full ])
          cases;
        (Policy.to_string policy, Digest.to_hex (Digest.string (Buffer.contents buf))))
      Policy.all
    @ [
        (let buf = Buffer.create 4096 in
         List.iter
           (fun (p, c) ->
             let w = Wcet.compute ~with_may:true ~policy:Policy.Fifo p c (pin_model c) in
             digest_refined buf (Explore.run ~budget:40 ~mode:Mode.Nc w))
           cases;
         ("fifo budget 40", Digest.to_hex (Digest.string (Buffer.contents buf))));
        (let buf = Buffer.create 4096 in
         List.iter
           (fun policy ->
             List.iter
               (fun (p, c) ->
                 let w = Wcet.compute ~with_may:true ~policy p c (pin_model c) in
                 digest_refined buf (Explore.run ~mode:Mode.Nc w))
               large_pin_cases)
           Policy.all;
         ("nsichneu+statemate nc", Digest.to_hex (Digest.string (Buffer.contents buf))));
      ]
  in
  let expected =
    [
      ("lru", "b655b2625331b7ce4cb3b8a97af7e897");
      ("fifo", "46afcb29d387e5072298b9b3764072f3");
      ("plru", "c4ec05313ca761d73e442365f7ce3e88");
      ("fifo budget 40", "720c5b23071ba552eb314c91515626de");
      ("nsichneu+statemate nc", "8ff1e6e9f4ff46e7813be8e12a074a68");
    ]
  in
  Alcotest.(check (list (pair string string))) "digests" expected runs

(* ------------------------------------------------------------------ *)
(* one sweep over every focus set vs the references it replaced *)

(* The search the set-at-a-time sweep replaced, kept as its reference:
   one hashed (node, state) pair at a time, each pair's block transfer
   run afresh, in FIFO order.  [events.(block)] are the block's events
   on the explored set.  Returns each node's in-states, the pairs
   visited (budget + 1 where the budget ran out) and whether it did. *)
let pairwise_reachable ~budget ~policy ~assoc ~events vivu =
  let (module P : Policy.POLICY) = Policy.find policy in
  let per_node = Array.make (Vivu.node_count vivu) [] in
  let seen = Hashtbl.create 256 in
  let work = Queue.create () in
  let visited = ref 0 and exhausted = ref false in
  let push node cs =
    if (not !exhausted) && not (Hashtbl.mem seen (node, cs)) then begin
      Hashtbl.add seen (node, cs) ();
      per_node.(node) <- cs :: per_node.(node);
      incr visited;
      if !visited > budget then exhausted := true else Queue.add (node, cs) work
    end
  in
  push (Vivu.entry vivu) (P.cset_empty ~assoc);
  while (not !exhausted) && not (Queue.is_empty work) do
    let node, cs = Queue.pop work in
    let out =
      Product.transfer (module P) ~assoc events.((Vivu.node vivu node).Vivu.block) cs
    in
    List.iter (fun s -> push s out) (Vivu.dag_succ vivu node);
    List.iter (fun s -> push s out) (Vivu.iter_succ vivu node)
  done;
  (per_node, !visited, !exhausted)

(* The per-set walk run alone from the cold entry, as [Product.reachable]
   explored each set before the sets shared one sweep, kept as the
   reference for what a set's exploration must do whichever tier runs
   it: the same memo misses ([steps]), state numbering (the order of a
   node's in-states) and budget cut.  Returns the visited count, whether
   the budget ran out, the steps, each node's in-states in interning
   order, and how many states were interned. *)
let per_set_walk ~budget ~policy ~assoc ~events vivu =
  let (module P : Policy.POLICY) = Policy.find policy in
  let word = Sys.int_size in
  let n = Vivu.node_count vivu in
  let ids = Hashtbl.create 64 in
  let states = ref [||] in
  let delta = ref [| 0 |] in
  let intern cs =
    match Hashtbl.find_opt ids cs with
    | Some id -> id
    | None ->
      let id = Hashtbl.length ids in
      states := Array.append !states [| cs |];
      Hashtbl.add ids cs id;
      if id / word = Array.length !delta then
        delta := Array.append !delta (Array.make (Array.length !delta) 0);
      id
  in
  let memo = Array.make (Array.length events) [||] in
  let steps = ref 0 in
  let out block id =
    if id >= Array.length memo.(block) then
      memo.(block) <- Array.append memo.(block) (Array.make (id + 1) (-1));
    if memo.(block).(id) < 0 then begin
      steps := !steps + Array.length events.(block);
      memo.(block).(id) <- intern (Product.transfer (module P) ~assoc events.(block) !states.(id))
    end;
    memo.(block).(id)
  in
  let width = ref 1 in
  let reached = ref (Array.make n 0) and pending = ref (Array.make n 0) in
  let widen () =
    let w = !width and w' = 2 * !width in
    let grow a =
      let b = Array.make (n * w') 0 in
      for v = 0 to n - 1 do
        Array.blit a (v * w) b (v * w') w
      done;
      b
    in
    reached := grow !reached;
    pending := grow !pending;
    width := w'
  in
  let dirty = Array.make n false and dirty_count = ref 0 in
  let visited = ref 0 and exhausted = ref false in
  let merge v =
    let r = !reached and p = !pending and d = !delta and base = v * !width in
    for w = 0 to !width - 1 do
      let fresh = d.(w) land lnot r.(base + w) in
      if fresh <> 0 then begin
        r.(base + w) <- r.(base + w) lor fresh;
        p.(base + w) <- p.(base + w) lor fresh;
        for b = 0 to word - 1 do
          if fresh land (1 lsl b) <> 0 then incr visited
        done;
        if not dirty.(v) then begin
          dirty.(v) <- true;
          incr dirty_count
        end
      end
    done;
    if !visited > budget then begin
      visited := budget + 1;
      exhausted := true
    end
  in
  ignore (intern (P.cset_empty ~assoc));
  !delta.(0) <- 1;
  merge (Vivu.entry vivu);
  !delta.(0) <- 0;
  let expand v =
    dirty.(v) <- false;
    decr dirty_count;
    let block = (Vivu.node vivu v).Vivu.block in
    let p = !pending and base = v * !width in
    for w = 0 to !width - 1 do
      let x = ref p.(base + w) and id = ref (w * word) in
      p.(base + w) <- 0;
      while !x <> 0 do
        if !x land 1 <> 0 then begin
          let o = if Array.length events.(block) = 0 then !id else out block !id in
          !delta.(o / word) <- !delta.(o / word) lor (1 lsl (o mod word))
        end;
        x := !x lsr 1;
        incr id
      done
    done;
    while Hashtbl.length ids > !width * word do
      widen ()
    done;
    List.iter merge (Vivu.dag_succ vivu v);
    List.iter merge (Vivu.iter_succ vivu v);
    Array.fill !delta 0 !width 0
  in
  while !dirty_count > 0 && not !exhausted do
    Array.iter (fun v -> if dirty.(v) && not !exhausted then expand v) (Vivu.topo vivu)
  done;
  let in_states v =
    let acc = ref [] in
    for i = (!width * word) - 1 downto 0 do
      if !reached.((v * !width) + (i / word)) land (1 lsl (i mod word)) <> 0 then
        acc := !states.(i) :: !acc
    done;
    !acc
  in
  (!visited, !exhausted, !steps, in_states, Hashtbl.length ids)

(* Every cache set a layout touches, ascending, and the events of the
   [i]th of them by block, as the references take them. *)
let all_sets layout config =
  Array.of_list
    (List.sort_uniq compare
       (List.map (Config.set_of_mem_block config) (Layout.mem_block_ids layout)))

let set_events program events i =
  Array.init (Program.block_count program) (Product.block_events events i)

let reference_budgets = [ 1; 2; 40; Product.default_budget ]

(* Every cache set of the two large programs at 256 B 4-way (where one
   statemate set reaches hundreds of distinct states, so bitsets span
   several words and widen) and 8 KiB 2-way, explored by one call per
   (program, configuration, policy, budget) at budgets that cut the
   search at once, early, and not at all: each set's visited count and
   verdict equal the pairwise search's, and, when the budget holds, so
   do its in-states at every node. *)
let test_reachable_matches_pairwise () =
  let widest = ref 0 in
  List.iter
    (fun name ->
      let program = Suite.find name in
      let vivu = Vivu.expand program in
      List.iter
        (fun k ->
          let config = paper_config k in
          let assoc = config.Config.assoc in
          let layout = Layout.make program ~block_bytes:config.Config.block_bytes in
          let sets = all_sets layout config in
          let events = Product.events layout config sets in
          List.iter
            (fun policy ->
              List.iter
                (fun budget ->
                  let r = Product.reachable ~budget ~policy ~assoc ~events vivu in
                  Array.iteri
                    (fun i set ->
                      let case =
                        Printf.sprintf "%s %s set %d %s budget %d" name k set
                          (Policy.to_string policy) budget
                      in
                      let per_node, visited, exhausted =
                        pairwise_reachable ~budget ~policy ~assoc
                          ~events:(set_events program events i) vivu
                      in
                      Alcotest.(check int) (case ^ ": visited") visited (Product.visited r i);
                      Alcotest.(check bool)
                        (case ^ ": exhausted") exhausted (Product.exhausted r i);
                      if not exhausted then begin
                        let distinct = Hashtbl.create 64 in
                        Array.iteri
                          (fun node expected ->
                            let got = Product.in_states r i node in
                            List.iter (fun cs -> Hashtbl.replace distinct cs ()) got;
                            if List.sort compare got <> List.sort compare expected then
                              Alcotest.failf "%s: in-states of node %d differ" case node)
                          per_node;
                        widest := max !widest (Hashtbl.length distinct)
                      end)
                    sets)
                reference_budgets)
            Policy.all)
        [ "k3"; "k35" ])
    [ "nsichneu"; "statemate" ];
  Alcotest.(check bool)
    (Printf.sprintf "some explored set spans several bitset words (%d states)" !widest)
    true (!widest > Sys.int_size)

(* Every cache set of the two large programs at 256 B 4-way (every set
   meets more states than a word holds, so all leave the slab), 4 KiB
   4-way (some leave, some stay) and 8 KiB 2-way (most stay), and of
   lms at 1 KiB 4-way and janne_complex at 256 B 4-way, where under
   PLRU a set leaves the slab while an iteration successor earlier in
   the sweep has pending states, so where its walk resumes shows;
   under every policy and the four budgets: one call per (program,
   configuration, policy, budget) gives each set the visited count,
   verdict and steps of the per-set walk run alone, and, when the
   budget holds, the same in-states at every node in the same order.
   Some call must mix departing and staying sets, and some call must
   mix a set that exhausts its budget with one that completes. *)
let test_sweep_matches_per_set_walk () =
  let mixed_tiers = ref false and mixed_budget = ref false in
  List.iter
    (fun (name, configs) ->
      let program = Suite.find name in
      let vivu = Vivu.expand program in
      List.iter
        (fun k ->
          let config = paper_config k in
          let assoc = config.Config.assoc in
          let layout = Layout.make program ~block_bytes:config.Config.block_bytes in
          let sets = all_sets layout config in
          let events = Product.events layout config sets in
          let per_set = Array.mapi (fun i _ -> set_events program events i) sets in
          List.iter
            (fun policy ->
              List.iter
                (fun budget ->
                  let r = Product.reachable ~budget ~policy ~assoc ~events vivu in
                  let departs = ref false and stays = ref false in
                  let exhausts = ref false and completes = ref false in
                  Array.iteri
                    (fun i set ->
                      let case =
                        Printf.sprintf "%s %s set %d %s budget %d" name k set
                          (Policy.to_string policy) budget
                      in
                      let visited, exhausted, steps, in_states, n_states =
                        per_set_walk ~budget ~policy ~assoc ~events:per_set.(i) vivu
                      in
                      Alcotest.(check int) (case ^ ": visited") visited (Product.visited r i);
                      Alcotest.(check bool)
                        (case ^ ": exhausted") exhausted (Product.exhausted r i);
                      Alcotest.(check int) (case ^ ": steps") steps (Product.steps r i);
                      if n_states > Sys.int_size then departs := true
                      else if not exhausted then stays := true;
                      if exhausted then exhausts := true
                      else begin
                        completes := true;
                        for node = 0 to Vivu.node_count vivu - 1 do
                          if Product.in_states r i node <> in_states node then
                            Alcotest.failf "%s: in-states of node %d differ" case node
                        done
                      end)
                    sets;
                  if !departs && !stays then mixed_tiers := true;
                  if !exhausts && !completes then mixed_budget := true)
                reference_budgets)
            Policy.all)
        configs)
    [
      ("nsichneu", [ "k3"; "k27"; "k35" ]);
      ("statemate", [ "k3"; "k27"; "k35" ]);
      ("lms", [ "k15" ]);
      ("janne_complex", [ "k3" ]);
    ];
  Alcotest.(check bool) "some call has departing and staying sets" true !mixed_tiers;
  Alcotest.(check bool) "some call has exhausting and completing sets" true !mixed_budget

(* An already-passed deadline stops the exploration in either tier:
   statemate at 8 KiB 2-way, whose sets stay in the slab, and at 256 B
   4-way, whose sets leave it. *)
let test_deadline_both_tiers () =
  let program = Suite.find "statemate" in
  List.iter
    (fun k ->
      let config = paper_config k in
      let w = Wcet.compute ~with_may:true ~policy:Policy.Lru program config (pin_model config) in
      let d = Ucp_util.Deadline.after 1e-6 in
      while not (Ucp_util.Deadline.expired d) do
        ()
      done;
      Alcotest.check_raises ("statemate " ^ k) Ucp_util.Deadline.Deadline_exceeded (fun () ->
          ignore (Explore.run ~deadline:d ~mode:Mode.Nc w)))
    [ "k35"; "k3" ]

(* ------------------------------------------------------------------ *)
(* quantitative bounds *)

(* The reference computation PLRU's bound used to run, kept as the
   reference: the LRU analysis at the reference associativity [va] on
   a configuration with the same sets and lines, without the may
   domain, charged [ratio] per miss plus [add] per touched set. *)
let reference_quant (a : Analysis.t) =
  let config = Analysis.config a in
  let layout = Analysis.layout a in
  match Policy.competitiveness (Analysis.policy a) ~assoc:config.Config.assoc with
  | None -> None
  | Some _ when Program.prefetch_count (Vivu.program (Analysis.vivu a)) > 0 -> None
  | Some (va, ratio, add) ->
    let ref_config =
      Config.make ~assoc:va ~block_bytes:config.Config.block_bytes
        ~capacity:(va * config.Config.block_bytes * config.Config.sets)
    in
    let lru =
      Analysis.run ~with_may:false ~policy:Policy.Lru (Analysis.vivu a) layout ref_config
    in
    let sets =
      List.sort_uniq compare
        (List.map (Config.set_of_mem_block config) (Layout.mem_block_ids layout))
    in
    Some ((ratio * Analysis.miss_count_bound lru) + (add * List.length sets))

(* PLRU's must domain is LRU's at [va], so [Quantitative.miss_bound]
   reads PLRU's reference bound from the analysis being refined; FIFO
   still runs the reference analysis.  Both must equal the reference
   computation for every suite program and 18 generated ones, at every
   paper configuration. *)
let test_quant_matches_reference () =
  let programs =
    List.map snd Suite.all
    @ List.concat_map
        (fun (cls, _) ->
          List.init 6 (fun seed -> Ucp_workloads.Generate.program ~seed:(seed + 1) ~cls))
        Ucp_workloads.Generate.classes
  in
  List.iter
    (fun program ->
      let vivu = Vivu.expand program in
      List.iter
        (fun (k, config) ->
          let layout = Layout.make program ~block_bytes:config.Config.block_bytes in
          List.iter
            (fun policy ->
              let a = Analysis.run ~policy vivu layout config in
              let show = function None -> "-" | Some b -> string_of_int b in
              Alcotest.(check string)
                (Printf.sprintf "%s %s %s" (Program.name program) k (Policy.to_string policy))
                (show (reference_quant a))
                (show (Quantitative.miss_bound a)))
            [ Policy.Fifo; Policy.Plru ])
        Config.paper_configs)
    programs

(* The analysis-level bound holds on the simulated run. *)
let test_quant_bounds_run () =
  List.iter
    (fun policy ->
      let program = Suite.find "crc" in
      let config = paper_config "k2" in
      let m =
        Pipeline.measure ~policy ~refine:Mode.Nc program config Tech.nm45
      in
      match m.Pipeline.refine with
      | None -> Alcotest.fail "no refine summary"
      | Some s -> (
        match (policy, s.Explore.s_quant) with
        | Policy.Lru, Some _ -> Alcotest.fail "LRU has no competitiveness bound"
        | Policy.Lru, None -> ()
        | _, None ->
          Alcotest.fail
            (Policy.to_string policy ^ ": expected a quantitative bound")
        | _, Some b ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: demand misses %d <= quant bound %d"
               (Policy.to_string policy) m.Pipeline.demand_misses b)
            true
            (m.Pipeline.demand_misses <= b)))
    Policy.all

(* Concrete Sleator-Tarjan inequality behind the FIFO triple:
   misses_FIFO(k) <= k * misses_LRU(k) + k per touched set, from cold
   caches, on arbitrary demand-access sequences. *)
let count_misses policy config trace =
  let c = Concrete.create ~policy config in
  List.fold_left
    (fun acc mb ->
      match Concrete.access c mb with
      | Concrete.Hit -> acc
      | Concrete.Miss _ -> acc + 1)
    0 trace

let distinct_sets config trace =
  let seen = Hashtbl.create 8 in
  List.iter (fun mb -> Hashtbl.replace seen (Config.set_of_mem_block config mb) ()) trace;
  Hashtbl.length seen

let prop_fifo_competitive =
  QCheck2.Test.make
    ~name:"fifo misses <= k * lru misses + k per touched set" ~count:300
    QCheck2.Gen.(pair Ucp_testlib.gen_config Ucp_testlib.gen_access_sequence)
    (fun (config, trace) ->
      let k = config.Config.assoc in
      let fifo = count_misses Concrete.Fifo config trace in
      let lru = count_misses Concrete.Lru config trace in
      fifo <= (k * lru) + (k * distinct_sets config trace))

(* Reineke/Grund inequality behind the PLRU triple: every PLRU(k) miss
   is an LRU(log2 k + 1) miss — same set count, reference associativity
   log2 k + 1, ratio 1, no additive term. *)
let prop_plru_competitive =
  QCheck2.Test.make
    ~name:"plru misses <= lru misses at the must associativity" ~count:300
    QCheck2.Gen.(pair Ucp_testlib.gen_config Ucp_testlib.gen_access_sequence)
    (fun (config, trace) ->
      let k = config.Config.assoc in
      let va = Policy.plru_must_assoc k in
      let ref_config =
        Config.make ~assoc:va ~block_bytes:config.Config.block_bytes
          ~capacity:(va * config.Config.block_bytes * config.Config.sets)
      in
      let plru = count_misses Concrete.Plru config trace in
      let lru = count_misses Concrete.Lru ref_config trace in
      plru <= lru)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "refine"
    [
      ( "mode",
        [ Alcotest.test_case "string round-trip" `Quick test_mode_roundtrip ] );
      ( "soundness",
        List.map
          (fun policy ->
            Alcotest.test_case
              ("refined classification sound under " ^ Policy.to_string policy)
              `Slow
              (test_refined_soundness policy))
          Policy.all
        @ [
            Alcotest.test_case "NC strictly reduced for >= 2 policies" `Slow
              test_strict_reduction;
            Alcotest.test_case "full mode agrees with the abstraction" `Slow
              test_full_mode_agrees;
            Alcotest.test_case "full mode catches a planted contradiction" `Slow
              test_full_mode_catches_planted;
          ] );
      ( "budget",
        [
          Alcotest.test_case "starved exploration: deterministic and sound"
            `Slow test_budget_exhaustion;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "exploration output pinned" `Quick
            test_exploration_output_pinned;
        ] );
      ( "product",
        [
          Alcotest.test_case "set-at-a-time sweep matches the pairwise search"
            `Quick test_reachable_matches_pairwise;
          Alcotest.test_case "one sweep equals the per-set walk" `Quick
            test_sweep_matches_per_set_walk;
          Alcotest.test_case "the deadline holds in both tiers" `Quick
            test_deadline_both_tiers;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "fingerprint has a refine axis" `Quick
            test_fingerprint_refine_axis;
          Alcotest.test_case "refine summary round-trips the journal" `Slow
            test_record_roundtrip;
        ] );
      ( "audit",
        [
          Alcotest.test_case "corrupt-refine is caught" `Slow
            test_corrupt_refine_caught;
        ] );
      ( "quantitative",
        [
          Alcotest.test_case "analysis bound holds on the simulated run" `Slow
            test_quant_bounds_run;
          Alcotest.test_case "PLRU's bound is its own must bound" `Slow
            test_quant_matches_reference;
          QCheck_alcotest.to_alcotest prop_fifo_competitive;
          QCheck_alcotest.to_alcotest prop_plru_competitive;
        ] );
    ]
