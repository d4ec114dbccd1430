(* Tests for Ucp_policy: the replacement-policy subsystem.

   The centrepiece is the per-policy soundness cross-validation the
   ISSUE asks for: run the abstract classification and the concrete
   simulator over workload-suite programs under the same policy and
   check that no always-hit slot ever misses and no always-miss slot
   ever hits.  Around it, concrete-semantics units for FIFO (hits do
   not reorder) and tree-PLRU (invalid-first fill, bit-driven victim),
   and the string round-trips the CLI relies on. *)

module Policy = Ucp_policy
module Config = Ucp_cache.Config
module Concrete = Ucp_cache.Concrete
module Wcet = Ucp_wcet.Wcet
module Analysis = Ucp_wcet.Analysis
module Classification = Ucp_wcet.Classification
module Simulator = Ucp_sim.Simulator
module Vivu = Ucp_cfg.Vivu
module Program = Ucp_isa.Program

let model = Ucp_testlib.tiny_model

(* ------------------------------------------------------------------ *)
(* identifiers *)

let test_string_roundtrip () =
  List.iter
    (fun p ->
      match Policy.of_string (Policy.to_string p) with
      | Ok p' -> Alcotest.(check bool) (Policy.to_string p) true (p = p')
      | Error msg -> Alcotest.fail msg)
    Policy.all;
  Alcotest.(check bool) "case-insensitive" true
    (Policy.of_string "PLRU" = Ok Policy.Plru);
  Alcotest.(check bool) "pseudo-lru alias" true
    (Policy.of_string "pseudo-lru" = Ok Policy.Plru);
  Alcotest.(check bool) "unknown rejected" true
    (match Policy.of_string "rand" with Error _ -> true | Ok _ -> false)

let test_assoc_checks () =
  List.iter (fun a -> Policy.check_assoc Policy.Plru ~assoc:a) [ 1; 2; 4; 8 ];
  Alcotest.(check bool) "plru rejects assoc 3" true
    (try
       Policy.check_assoc Policy.Plru ~assoc:3;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "plru must assoc 4" 3 (Policy.plru_must_assoc 4);
  Alcotest.(check int) "plru must assoc 8" 4 (Policy.plru_must_assoc 8);
  Alcotest.(check int) "plru must assoc 1" 1 (Policy.plru_must_assoc 1)

(* ------------------------------------------------------------------ *)
(* concrete semantics *)

(* one set of associativity [assoc] *)
let one_set_config ~assoc = Config.make ~assoc ~block_bytes:16 ~capacity:(16 * assoc)

let test_fifo_hit_does_not_reorder () =
  let config = one_set_config ~assoc:2 in
  let fifo = Concrete.create ~policy:Concrete.Fifo config in
  ignore (Concrete.access fifo 0);
  ignore (Concrete.access fifo 1);
  Alcotest.(check bool) "re-access of 0 hits" true (Concrete.access fifo 0 = Concrete.Hit);
  (* 0 is still the oldest insertion, so the next miss evicts it... *)
  (match Concrete.access fifo 2 with
  | Concrete.Miss (Some v) -> Alcotest.(check int) "fifo evicts first-in" 0 v
  | _ -> Alcotest.fail "expected an evicting miss");
  (* ...whereas LRU would have protected the re-accessed block *)
  let lru = Concrete.create ~policy:Concrete.Lru config in
  ignore (Concrete.access lru 0);
  ignore (Concrete.access lru 1);
  ignore (Concrete.access lru 0);
  match Concrete.access lru 2 with
  | Concrete.Miss (Some v) -> Alcotest.(check int) "lru evicts least-recent" 1 v
  | _ -> Alcotest.fail "expected an evicting miss"

let test_plru_fill_and_victims () =
  let config = one_set_config ~assoc:4 in
  let c = Concrete.create ~policy:Concrete.Plru config in
  (* invalid ways fill first, in way order *)
  List.iter
    (fun mb ->
      match Concrete.access c mb with
      | Concrete.Miss None -> ()
      | _ -> Alcotest.fail "cold fills must not evict")
    [ 0; 1; 2; 3 ];
  Alcotest.(check (list int)) "all resident" [ 0; 1; 2; 3 ] (Concrete.contents c);
  (* after touching ways 0..3 in order the tree points back at way 0 *)
  (match Concrete.access c 4 with
  | Concrete.Miss (Some v) -> Alcotest.(check int) "classic PLRU victim" 0 v
  | _ -> Alcotest.fail "expected an evicting miss");
  (* the bits now shield way 0's half; the next victim is in the other *)
  match Concrete.access c 5 with
  | Concrete.Miss (Some v) -> Alcotest.(check int) "second victim" 2 v
  | _ -> Alcotest.fail "expected an evicting miss"

let test_plru_hit_protects () =
  let config = one_set_config ~assoc:4 in
  let c = Concrete.create ~policy:Concrete.Plru config in
  List.iter (fun mb -> ignore (Concrete.access c mb)) [ 0; 1; 2; 3 ];
  (* re-touch 0: the tree must point away from it again *)
  Alcotest.(check bool) "hit" true (Concrete.access c 0 = Concrete.Hit);
  match Concrete.access c 4 with
  | Concrete.Miss (Some v) ->
    Alcotest.(check bool) "re-touched block survives" true (v <> 0);
    Alcotest.(check bool) "0 resident" true (List.mem 0 (Concrete.contents c))
  | _ -> Alcotest.fail "expected an evicting miss"

(* ------------------------------------------------------------------ *)
(* abstract domains: small algebraic checks *)

let test_join_leq_laws () =
  List.iter
    (fun pid ->
      let (module P : Policy.POLICY) = Policy.find pid in
      let assoc = 4 in
      let touch kind st mb hint = P.aset_update kind ~assoc ~hint st mb in
      List.iter
        (fun kind ->
          let a =
            List.fold_left
              (fun st mb -> touch kind st mb Policy.Miss)
              [] [ 0; 1; 2 ]
          in
          let b =
            List.fold_left
              (fun st mb -> touch kind st mb Policy.Miss)
              [] [ 2; 3 ]
          in
          let j = P.aset_join kind a b in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: join is an upper bound (left)" P.name
               (match kind with Policy.Must -> "must" | Policy.May -> "may"))
            true
            (P.aset_leq kind a j);
          Alcotest.(check bool)
            (Printf.sprintf "%s: join upper bound (right)" P.name)
            true
            (P.aset_leq kind b j);
          Alcotest.(check bool)
            (Printf.sprintf "%s: leq reflexive" P.name)
            true (P.aset_leq kind a a))
        [ Policy.Must; Policy.May ])
    Policy.all

(* ------------------------------------------------------------------ *)
(* the soundness cross-validation (satellite 2) *)

(* Per static slot (memory block of the fetch is context-independent,
   but the classification is per VIVU context): meet the classifications
   over every expanded context of the slot.  Only a slot that is
   always-hit in *every* context may claim "never misses", and only one
   that is always-miss everywhere may claim "never hits" — the concrete
   trace does not know which context it is in. *)
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

let cross_validate ~policy ~seed program config =
  let w = Wcet.compute ~with_may:true ~policy program config model in
  let tbl = meet_classifications w.Wcet.analysis program in
  let violations = ref [] in
  let on_fetch ~block ~pos ~hit =
    match Hashtbl.find_opt tbl (block, pos) with
    | Some Classification.Always_hit when not hit ->
      violations := Printf.sprintf "AH slot (%d,%d) missed" block pos :: !violations
    | Some Classification.Always_miss when hit ->
      violations := Printf.sprintf "AM slot (%d,%d) hit" block pos :: !violations
    | _ -> ()
  in
  ignore (Simulator.run ~seed ~policy ~on_fetch program config model);
  !violations

let suite_slice =
  (* small programs keep the three-policy sweep fast; the slice still
     spans loops, nests and branchy control flow *)
  lazy
    (List.filteri (fun i _ -> i mod 4 = 0) Ucp_workloads.Suite.all
    |> List.filter (fun (_, p) -> Program.total_slots p < 600))

let soundness_configs =
  [
    Config.make ~assoc:2 ~block_bytes:16 ~capacity:256;
    Config.make ~assoc:4 ~block_bytes:16 ~capacity:512;
  ]

let test_soundness policy () =
  List.iter
    (fun (name, program) ->
      List.iter
        (fun config ->
          List.iter
            (fun seed ->
              match cross_validate ~policy ~seed program config with
              | [] -> ()
              | v ->
                Alcotest.fail
                  (Printf.sprintf "%s under %s @%s seed %d: %s" name
                     (Policy.to_string policy) (Config.id config) seed
                     (String.concat "; " v)))
            [ 1; 42 ])
        soundness_configs)
    (Lazy.force suite_slice)

(* the optimizer inserts prefetches and re-analyzes under the policy;
   the optimized binary must still never contradict its classification *)
let test_soundness_optimized policy () =
  let program = Ucp_workloads.Suite.find "fft1" in
  let config = Config.make ~assoc:2 ~block_bytes:16 ~capacity:256 in
  let r = Ucp_prefetch.Optimizer.optimize ~policy program config model in
  match cross_validate ~policy ~seed:7 r.Ucp_prefetch.Optimizer.program config with
  | [] -> ()
  | v ->
    Alcotest.fail
      (Printf.sprintf "optimized fft1 under %s: %s" (Policy.to_string policy)
         (String.concat "; " v))

(* FIFO's extra conservatism must never *gain* classified slots relative
   to what a definite outcome would allow: sanity-check that the three
   policies classify a shared workload without crashing and report
   plausible counter totals *)
let test_classification_counts () =
  let program = Ucp_workloads.Suite.find "crc" in
  let config = Config.make ~assoc:2 ~block_bytes:16 ~capacity:256 in
  List.iter
    (fun policy ->
      let w = Wcet.compute ~with_may:true ~policy program config model in
      let ah, am, nc = Analysis.classification_counts w.Wcet.analysis in
      Alcotest.(check bool)
        (Printf.sprintf "%s: counters cover the graph" (Policy.to_string policy))
        true
        (ah >= 0 && am >= 0 && nc >= 0 && ah + am + nc > 0))
    Policy.all

(* The re-access obligation of [POLICY.cset_access], on which the
   simulator's re-access shortcut rests: from any state reached by
   accesses, demand fetches and fills alike, an access of the block
   just accessed hits, evicts nothing and returns a state equal to its
   input. *)
let prop_reaccess_changes_nothing policy =
  let module P = (val Policy.find policy : Policy.POLICY) in
  let print (assoc, ops) =
    Printf.sprintf "assoc %d: %s" assoc (String.concat " " (List.map string_of_int ops))
  in
  QCheck2.Test.make
    ~name:(Policy.to_string policy ^ ": a re-access hits and changes nothing")
    ~count:300 ~print
    QCheck2.Gen.(pair (oneofl [ 1; 2; 4; 8 ]) (list_size (int_range 1 60) (int_bound 12)))
    (fun (assoc, ops) ->
      let _, ok =
        List.fold_left
          (fun (cs, ok) mb ->
            let cs, _, _ = P.cset_access ~assoc cs mb in
            let cs', hit, evicted = P.cset_access ~assoc cs mb in
            (cs', ok && hit && evicted = None && cs' = cs))
          (P.cset_empty ~assoc, true) ops
      in
      ok)

let () =
  Alcotest.run "ucp_policy"
    [
      ( "identifiers",
        [
          Alcotest.test_case "string round-trip" `Quick test_string_roundtrip;
          Alcotest.test_case "associativity checks" `Quick test_assoc_checks;
        ] );
      ( "concrete",
        [
          Alcotest.test_case "fifo hits do not reorder" `Quick
            test_fifo_hit_does_not_reorder;
          Alcotest.test_case "plru fill and victims" `Quick test_plru_fill_and_victims;
          Alcotest.test_case "plru hit protects" `Quick test_plru_hit_protects;
        ]
        @ List.map
            (fun p -> QCheck_alcotest.to_alcotest (prop_reaccess_changes_nothing p))
            Policy.all );
      ( "abstract",
        [
          Alcotest.test_case "join/leq laws" `Quick test_join_leq_laws;
          Alcotest.test_case "classification counts" `Quick
            test_classification_counts;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "lru: analysis vs simulator" `Slow (test_soundness Policy.Lru);
          Alcotest.test_case "fifo: analysis vs simulator" `Slow
            (test_soundness Policy.Fifo);
          Alcotest.test_case "plru: analysis vs simulator" `Slow
            (test_soundness Policy.Plru);
          Alcotest.test_case "lru: optimized binary" `Quick
            (test_soundness_optimized Policy.Lru);
          Alcotest.test_case "fifo: optimized binary" `Quick
            (test_soundness_optimized Policy.Fifo);
          Alcotest.test_case "plru: optimized binary" `Quick
            (test_soundness_optimized Policy.Plru);
        ] );
    ]
