(* Mutation tests for the Ucp_verify certification layer.

   A checker earns its keep by what it rejects: each test here takes a
   genuine artifact (an analysis, an optimizer result), verifies it
   certifies, then perturbs one claim and requires the checker to fail
   naming the violated obligation. *)

module Verify = Ucp_verify
module Wcet = Ucp_wcet.Wcet
module Optimizer = Ucp_prefetch.Optimizer
module Config = Ucp_cache.Config
module Tech = Ucp_energy.Tech
module Cacti = Ucp_energy.Cacti

let k2 = Config.make ~assoc:2 ~block_bytes:16 ~capacity:256

(* one full pipeline artifact set: original analysis, optimizer result,
   optimized analysis — computed once per (program, policy) and shared
   across the tests below *)
let setup =
  let cache = Hashtbl.create 4 in
  fun ?(policy = Ucp_policy.Lru) name ->
    match Hashtbl.find_opt cache (name, policy) with
    | Some v -> v
    | None ->
      let program = Ucp_workloads.Suite.find name in
      let model = Cacti.model k2 Tech.nm45 in
      let w0 = Wcet.compute ~with_may:true ~policy program k2 model in
      let r = Optimizer.optimize ~initial:w0 program k2 model in
      let w1 =
        Wcet.compute ~with_may:true ~policy r.Optimizer.program k2 model
      in
      Hashtbl.replace cache (name, policy) (w0, r, w1);
      (w0, r, w1)

let expect_obligation name obligation = function
  | Error msg ->
    let n = String.length obligation in
    Alcotest.(check bool)
      (Printf.sprintf "%s names %s (got %S)" name obligation msg)
      true
      (String.length msg >= n && String.sub msg 0 n = obligation)
  | Ok _ -> Alcotest.failf "%s: corrupted artifact accepted" name

(* ------------------------------------------------------------------ *)
(* audit modes *)

let test_mode_parsing () =
  Alcotest.(check bool) "off" true (Verify.mode_of_string "off" = Ok Verify.Off);
  Alcotest.(check bool) "full" true
    (Verify.mode_of_string "full" = Ok Verify.Full);
  Alcotest.(check bool) "sample:4" true
    (Verify.mode_of_string "sample:4" = Ok (Verify.Sample 4));
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s ^ " rejected") true
        (Result.is_error (Verify.mode_of_string s)))
    [ "sample:0"; "sample:-1"; "sample:x"; "sample:"; "bogus"; "" ];
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Verify.mode_to_string m ^ " round-trips")
        true
        (Verify.mode_of_string (Verify.mode_to_string m) = Ok m))
    [ Verify.Off; Verify.Full; Verify.Sample 7 ]

let test_mode_selection () =
  let ids = List.init 50 (fun i -> Printf.sprintf "case-%d:k%d:45nm:lru" i i) in
  Alcotest.(check bool) "Off selects nothing" true
    (List.for_all (fun id -> not (Verify.selects Verify.Off id)) ids);
  Alcotest.(check bool) "Full selects everything" true
    (List.for_all (Verify.selects Verify.Full) ids);
  Alcotest.(check bool) "Sample 1 selects everything" true
    (List.for_all (Verify.selects (Verify.Sample 1)) ids);
  let picked = List.filter (Verify.selects (Verify.Sample 4)) ids in
  Alcotest.(check bool) "Sample 4 is a strict sample" true
    (picked <> [] && List.length picked < List.length ids);
  (* deterministic: the same ids are selected on a re-run (resume) *)
  Alcotest.(check bool) "Sample selection is stable" true
    (List.equal String.equal picked
       (List.filter (Verify.selects (Verify.Sample 4)) ids))

(* ------------------------------------------------------------------ *)
(* the full audit on genuine artifacts *)

let test_audit_case_passes () =
  List.iter
    (fun policy ->
      let w0, r, w1 = setup ~policy "fft1" in
      match Verify.audit_case ~original:w0 ~optimized:w1 r with
      | Ok (Verify.Certified { checks; seconds }) ->
        Alcotest.(check int)
          (Ucp_policy.to_string policy ^ " checks")
          5 checks;
        Alcotest.(check bool) "non-negative cost" true (seconds >= 0.0)
      | Ok (Verify.Skipped { reason }) ->
        Alcotest.failf "%s: plain analysis skipped: %s"
          (Ucp_policy.to_string policy) reason
      | Error msg ->
        Alcotest.failf "%s: audit failed: %s" (Ucp_policy.to_string policy) msg)
    [ Ucp_policy.Lru; Ucp_policy.Fifo; Ucp_policy.Plru ]

let test_audit_case_corrupt_hook () =
  let w0, r, w1 = setup "fft1" in
  expect_obligation "corrupt hook" "optimizer-tau-after"
    (Verify.audit_case ~corrupt:true ~original:w0 ~optimized:w1 r)

(* ------------------------------------------------------------------ *)
(* IPET fast path: the flow certificate must carry genuine cases
   without a solver, and tampered bounds must die on the linear
   cross-checks before any fallback *)

let test_ipet_fastpath_fires () =
  Ucp_obs.Metrics.enable ();
  Fun.protect ~finally:Ucp_obs.Metrics.disable (fun () ->
      Ucp_obs.Metrics.reset ();
      List.iter
        (fun name ->
          let w0, _, w1 = setup name in
          List.iter
            (fun (label, w) ->
              match Verify.certify_ipet w with
              | Ok () -> ()
              | Error msg -> Alcotest.failf "%s/%s: %s" name label msg)
            [ ("original", w0); ("optimized", w1) ])
        [ "fft1"; "st"; "fdct" ];
      let count k =
        match Ucp_obs.Metrics.find k with
        | Some (Ucp_obs.Metrics.Counter n) -> n
        | _ -> 0
      in
      Alcotest.(check int)
        "every certification took the fast path" 6
        (count "audit_ipet_fastpath_total");
      Alcotest.(check int) "no solver fallback" 0
        (count "audit_ipet_slowpath_total"))

let test_ipet_tau_mutation () =
  let w0, _, _ = setup "fft1" in
  List.iter
    (fun d ->
      match Verify.certify_ipet { w0 with Wcet.tau = w0.Wcet.tau + d } with
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "tampered tau (%+d) names the cross-check (got %S)" d msg)
          true
          (String.length msg >= 5 && String.sub msg 0 5 = "ipet-")
      | Ok () -> Alcotest.failf "tampered tau (%+d) accepted" d)
    [ 1; -1 ]

(* ------------------------------------------------------------------ *)
(* witness replay mutations *)

let test_witness_replay_passes () =
  List.iter
    (fun policy ->
      let w0, _, w1 = setup ~policy "fft1" in
      List.iter
        (fun (label, w) ->
          match Verify.replay_witness w with
          | Ok () -> ()
          | Error msg ->
            Alcotest.failf "%s/%s: %s" (Ucp_policy.to_string policy) label msg)
        [ ("original", w0); ("optimized", w1) ])
    [ Ucp_policy.Lru; Ucp_policy.Fifo; Ucp_policy.Plru ]

let test_witness_tau_mutation () =
  let w0, _, _ = setup "fft1" in
  expect_obligation "inflated tau" "witness-tau"
    (Verify.replay_witness { w0 with Wcet.tau = w0.Wcet.tau + 1 })

let test_witness_path_mutation () =
  let w0, _, _ = setup "fft1" in
  let n = Array.length w0.Wcet.path in
  expect_obligation "truncated path" "witness-path"
    (Verify.replay_witness { w0 with Wcet.path = Array.sub w0.Wcet.path 0 (n - 1) });
  expect_obligation "empty path" "witness-path"
    (Verify.replay_witness { w0 with Wcet.path = [||] })

let test_witness_counts_mutation () =
  let w0, _, _ = setup "fft1" in
  let n_w = Array.copy w0.Wcet.n_w in
  n_w.(w0.Wcet.path.(0)) <- n_w.(w0.Wcet.path.(0)) + 1;
  expect_obligation "inflated multiplicity" "witness-"
    (Verify.replay_witness { w0 with Wcet.n_w })

(* The replay walks the witness with a cursor and the simulator charges
   a run of re-reads in one step; every slot must still reach the
   probe, in order.  [reclassify w (node, pos) cls] is [w] with one
   witness slot reclassified and tau_w re-derived to match, so the
   replay itself must catch the lie. *)
let reclassify (w : Wcet.t) (node, pos) cls =
  let analysis = w.Wcet.analysis in
  let vivu = Ucp_wcet.Analysis.vivu analysis in
  let cost c = Wcet.cycles_of w.Wcet.model c in
  let old = Ucp_wcet.Analysis.classif analysis ~node ~pos in
  {
    w with
    Wcet.analysis = Ucp_wcet.Analysis.override_classif analysis [ (node, pos, cls) ];
    tau = w.Wcet.tau + (Ucp_cfg.Vivu.mult vivu node * (cost cls - cost old));
  }

(* The witness slots [(node, pos)] that [keep] selects, last first;
   [keep] also sees whether the slot starts a run (its predecessor in
   the block is in another memory block or prefetches). *)
let witness_slots (w : Wcet.t) keep =
  let analysis = w.Wcet.analysis in
  let layout = Ucp_wcet.Analysis.layout analysis in
  let vivu = Ucp_wcet.Analysis.vivu analysis in
  List.filter
    (fun (node, pos) ->
      let block = (Ucp_cfg.Vivu.node vivu node).Ucp_cfg.Vivu.block in
      let mbs = Ucp_isa.Layout.slot_mem_blocks layout block in
      let starts_run =
        pos = 0
        || mbs.(pos - 1) <> mbs.(pos)
        || (Ucp_isa.Layout.prefetch_targets layout block).(pos - 1)
           <> Ucp_isa.Layout.No_target
      in
      keep ~starts_run (Ucp_wcet.Analysis.classif analysis ~node ~pos))
    (List.rev (Array.to_list (Wcet.path_refs w)))

let slot_name (w : Wcet.t) (node, pos) =
  let vivu = Ucp_wcet.Analysis.vivu w.Wcet.analysis in
  Printf.sprintf "(%d,%d)" (Ucp_cfg.Vivu.node vivu node).Ucp_cfg.Vivu.block pos

let test_witness_reread_reaches_probe () =
  let w0, _, _ = setup "fft1" in
  match
    witness_slots w0 (fun ~starts_run cls ->
        (not starts_run) && cls = Ucp_wcet.Classification.Always_hit)
  with
  | [] -> Alcotest.fail "fft1's witness has no always-hit re-read"
  | slot :: _ ->
    Alcotest.(check (result unit string))
      "a re-read claimed always-miss fails the replay"
      (Error
         (Printf.sprintf
            "always-miss: slot %s classified Always_miss hit concretely under lru"
            (slot_name w0 slot)))
      (Verify.replay_witness (reclassify w0 slot Ucp_wcet.Classification.Always_miss))

let test_witness_missed_slot_named () =
  let w0, _, _ = setup "fft1" in
  match
    witness_slots w0 (fun ~starts_run cls ->
        starts_run && cls = Ucp_wcet.Classification.Always_miss)
  with
  | [] -> Alcotest.fail "fft1's witness has no always-miss slot"
  | slot :: _ ->
    Alcotest.(check string) "the last always-miss slot" "(7,4)" (slot_name w0 slot);
    Alcotest.(check (result unit string))
      "a miss claimed always-hit fails the replay, naming the slot"
      (Error "always-hit: slot (7,4) classified Always_hit missed concretely under lru")
      (Verify.replay_witness (reclassify w0 slot Ucp_wcet.Classification.Always_hit))

(* fft1's k35 FIFO witness steps through block 5, which has no slot:
   the cursor skips it and the replay certifies *)
let test_witness_crosses_empty_block () =
  let program = Ucp_workloads.Suite.find "fft1" in
  let k35 = List.assoc "k35" Config.paper_configs in
  let w =
    Wcet.compute ~with_may:true ~policy:Ucp_policy.Fifo program k35
      (Cacti.model k35 Tech.nm45)
  in
  let vivu = Ucp_wcet.Analysis.vivu w.Wcet.analysis in
  Alcotest.(check bool) "the witness crosses empty block 5" true
    (Ucp_isa.Program.slots program 5 = 0
    && Array.exists
         (fun id -> (Ucp_cfg.Vivu.node vivu id).Ucp_cfg.Vivu.block = 5)
         w.Wcet.path);
  Alcotest.(check (result unit string)) "replay certifies" (Ok ()) (Verify.replay_witness w)

(* ------------------------------------------------------------------ *)
(* optimizer audit-trail mutations (on a case that actually inserts) *)

let test_audit_trail_passes () =
  let w0, r, w1 = setup "st" in
  Alcotest.(check bool) "st@k2 inserts prefetches" true
    (r.Optimizer.insertions <> []);
  match Verify.audit_trail ~original:w0 ~optimized:w1 r with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_trail_tau_after_mutation () =
  let w0, r, w1 = setup "st" in
  expect_obligation "inflated tau_after" "optimizer-tau-after"
    (Verify.audit_trail ~original:w0 ~optimized:w1
       { r with Optimizer.tau_after = r.Optimizer.tau_after + 1 })

let test_trail_tau_before_mutation () =
  let w0, r, w1 = setup "st" in
  expect_obligation "deflated tau_before" "optimizer-tau-before"
    (Verify.audit_trail ~original:w0 ~optimized:w1
       { r with Optimizer.tau_before = r.Optimizer.tau_before - 1 })

let test_trail_round_mutation () =
  let w0, r, w1 = setup "st" in
  match r.Optimizer.trail with
  | [] -> Alcotest.fail "expected a non-empty trail"
  | round :: rest ->
    (* breaking one round's claimed tau breaks the chained Eq. 5-9
       acceptance conditions or the endpoint equalities *)
    let forged =
      { round with Optimizer.round_tau_after = round.Optimizer.round_tau_before + 1 }
    in
    let res =
      Verify.audit_trail ~original:w0 ~optimized:w1
        { r with Optimizer.trail = forged :: rest }
    in
    Alcotest.(check bool) "forged round rejected" true (Result.is_error res)

let test_trail_materialization_mutation () =
  let w0, r, _ = setup "st" in
  (* claim the insertions but hand over the original program: the
     recorded prefetches are not materialized in it *)
  let res =
    Verify.audit_trail ~original:w0 ~optimized:w0
      { r with Optimizer.program = r.Optimizer.original }
  in
  Alcotest.(check bool) "unmaterialized insertions rejected" true
    (Result.is_error res)

(* the original's analysis may not stand in for a changed program: a
   result that claims no insertion but names a program other than the
   one analysed must fail the trail, also when the audit is handed one
   analysis for both sides and so certifies each side's checks once *)
let test_trail_program_identity () =
  let w0, r, _ = setup "st" in
  let r' =
    {
      r with
      Optimizer.insertions = [];
      trail = [];
      tau_after = r.Optimizer.tau_before;
    }
  in
  Alcotest.(check bool) "the result names a changed program" false
    (r'.Optimizer.program == r'.Optimizer.original);
  expect_obligation "changed program, original's analysis" "optimizer-program"
    (Verify.audit_trail ~original:w0 ~optimized:w0 r');
  expect_obligation "shared audit of a changed program" "optimizer-program"
    (Verify.audit_case ~original:w0 ~optimized:w0 r')

let () =
  Alcotest.run "ucp_verify"
    [
      ( "modes",
        [
          Alcotest.test_case "parsing" `Quick test_mode_parsing;
          Alcotest.test_case "selection" `Quick test_mode_selection;
        ] );
      ( "audit",
        [
          Alcotest.test_case "passes on genuine cases" `Quick
            test_audit_case_passes;
          Alcotest.test_case "corrupt hook must fail" `Quick
            test_audit_case_corrupt_hook;
        ] );
      ( "ipet",
        [
          Alcotest.test_case "fast path carries genuine cases" `Quick
            test_ipet_fastpath_fires;
          Alcotest.test_case "tampered tau rejected" `Quick
            test_ipet_tau_mutation;
        ] );
      ( "witness",
        [
          Alcotest.test_case "replay passes (all policies)" `Quick
            test_witness_replay_passes;
          Alcotest.test_case "inflated tau rejected" `Quick
            test_witness_tau_mutation;
          Alcotest.test_case "mutated path rejected" `Quick
            test_witness_path_mutation;
          Alcotest.test_case "mutated counts rejected" `Quick
            test_witness_counts_mutation;
          Alcotest.test_case "re-read reaches the probe" `Quick
            test_witness_reread_reaches_probe;
          Alcotest.test_case "missed slot named" `Quick
            test_witness_missed_slot_named;
          Alcotest.test_case "empty block crossed" `Quick
            test_witness_crosses_empty_block;
        ] );
      ( "trail",
        [
          Alcotest.test_case "passes on a prefetching case" `Quick
            test_audit_trail_passes;
          Alcotest.test_case "inflated tau_after rejected" `Quick
            test_trail_tau_after_mutation;
          Alcotest.test_case "deflated tau_before rejected" `Quick
            test_trail_tau_before_mutation;
          Alcotest.test_case "forged round rejected" `Quick
            test_trail_round_mutation;
          Alcotest.test_case "unmaterialized insertions rejected" `Quick
            test_trail_materialization_mutation;
          Alcotest.test_case "analysis of another program rejected" `Quick
            test_trail_program_identity;
        ] );
    ]
