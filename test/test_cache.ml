(* Tests for Ucp_cache: configurations, the concrete LRU cache, and the
   abstract must/may domains — including the soundness sandwich
   (must ⊆ concrete ⊆ may) on random access sequences. *)

module Config = Ucp_cache.Config
module Concrete = Ucp_cache.Concrete
module Abstract = Ucp_cache.Abstract

let cfg ?(assoc = 2) ?(block = 16) ?(cap = 64) () =
  Config.make ~assoc ~block_bytes:block ~capacity:cap

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_derivation () =
  let c = cfg ~assoc:2 ~block:16 ~cap:256 () in
  Alcotest.(check int) "sets" 8 c.Config.sets

let test_config_validation () =
  Alcotest.(check bool) "capacity mismatch" true
    (try
       ignore (Config.make ~assoc:2 ~block_bytes:16 ~capacity:100);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "block not multiple of 4" true
    (try
       ignore (Config.make ~assoc:1 ~block_bytes:10 ~capacity:100);
       false
     with Invalid_argument _ -> true)

let test_paper_configs () =
  Alcotest.(check int) "36 configurations" 36 (List.length Config.paper_configs);
  let k1 = List.assoc "k1" Config.paper_configs in
  Alcotest.(check int) "k1 assoc" 1 k1.Config.assoc;
  Alcotest.(check int) "k1 block" 16 k1.Config.block_bytes;
  Alcotest.(check int) "k1 capacity" 256 k1.Config.capacity;
  let k36 = List.assoc "k36" Config.paper_configs in
  Alcotest.(check int) "k36 assoc" 4 k36.Config.assoc;
  Alcotest.(check int) "k36 block" 32 k36.Config.block_bytes;
  Alcotest.(check int) "k36 capacity" 8192 k36.Config.capacity

let test_scaled_capacity () =
  let c = cfg ~assoc:2 ~block:16 ~cap:256 () in
  (match Config.half_capacity c with
  | Some h -> Alcotest.(check int) "half" 128 h.Config.capacity
  | None -> Alcotest.fail "half should exist");
  let tiny = cfg ~assoc:2 ~block:16 ~cap:32 () in
  Alcotest.(check bool) "no half below one set" true (Config.half_capacity tiny = None)

(* ------------------------------------------------------------------ *)
(* Concrete *)

let test_lru_eviction_order () =
  (* one set, two ways *)
  let c = Concrete.create (cfg ~assoc:2 ~block:16 ~cap:32 ()) in
  Alcotest.(check bool) "miss 1" true (Concrete.access c 0 = Concrete.Miss None);
  Alcotest.(check bool) "miss 2" true (Concrete.access c 1 = Concrete.Miss None);
  Alcotest.(check bool) "hit refreshes" true (Concrete.access c 0 = Concrete.Hit);
  (* now LRU is 1 *)
  Alcotest.(check bool) "evicts LRU" true (Concrete.access c 2 = Concrete.Miss (Some 1));
  Alcotest.(check (list int)) "contents" [ 0; 2 ] (Concrete.contents c)

let test_set_isolation () =
  let c = Concrete.create (cfg ~assoc:1 ~block:16 ~cap:32 ()) in
  ignore (Concrete.access c 0);
  ignore (Concrete.access c 1);
  Alcotest.(check bool) "different sets coexist" true
    (List.mem 0 (Concrete.contents c) && List.mem 1 (Concrete.contents c))

let test_age_tracking () =
  let c = Concrete.create (cfg ~assoc:4 ~block:16 ~cap:64 ()) in
  ignore (Concrete.access c 0);
  ignore (Concrete.access c 4);
  ignore (Concrete.access c 8);
  Alcotest.(check (option int)) "age of most recent" (Some 0) (Concrete.age c 8);
  Alcotest.(check (option int)) "age of oldest" (Some 2) (Concrete.age c 0);
  Alcotest.(check (option int)) "absent" None (Concrete.age c 12)

let test_copy_independent () =
  let c = Concrete.create (cfg ()) in
  ignore (Concrete.access c 0);
  let d = Concrete.copy c in
  ignore (Concrete.access d 4);
  Alcotest.(check bool) "copy does not leak back" false
    (List.mem 4 (Concrete.contents c))

(* ------------------------------------------------------------------ *)
(* Abstract: unit behaviour *)

let test_must_update_basics () =
  let config = cfg ~assoc:2 ~block:16 ~cap:32 () in
  let m = Abstract.empty config Abstract.Must in
  let m = Abstract.update m 0 in
  let m = Abstract.update m 2 in
  Alcotest.(check (option int)) "recent age 0" (Some 0) (Abstract.age m 2);
  Alcotest.(check (option int)) "older age 1" (Some 1) (Abstract.age m 0);
  let m = Abstract.update m 4 in
  Alcotest.(check bool) "evicted from must" false (Abstract.contains m 0)

let test_must_join_intersects () =
  let config = cfg ~assoc:2 ~block:16 ~cap:32 () in
  let a = Abstract.update (Abstract.empty config Abstract.Must) 0 in
  let b = Abstract.update (Abstract.empty config Abstract.Must) 2 in
  let j = Abstract.join a b in
  Alcotest.(check bool) "intersection empty" true (Abstract.blocks j = [])

let test_must_join_max_age () =
  let config = cfg ~assoc:2 ~block:16 ~cap:32 () in
  let a = Abstract.update (Abstract.empty config Abstract.Must) 0 in
  (* in b, 0 is older *)
  let b =
    Abstract.update (Abstract.update (Abstract.empty config Abstract.Must) 0) 2
  in
  let j = Abstract.join a b in
  Alcotest.(check (option int)) "max age kept" (Some 1) (Abstract.age j 0)

let test_may_join_unions () =
  let config = cfg ~assoc:2 ~block:16 ~cap:32 () in
  let a = Abstract.update (Abstract.empty config Abstract.May) 0 in
  let b = Abstract.update (Abstract.empty config Abstract.May) 2 in
  let j = Abstract.join a b in
  Alcotest.(check (list int)) "union" [ 0; 2 ] (Abstract.blocks j)

let test_victims () =
  let config = cfg ~assoc:2 ~block:16 ~cap:32 () in
  let m = Abstract.update (Abstract.update (Abstract.empty config Abstract.Must) 0) 2 in
  let transfer mb =
    let st = Abstract.copy m in
    let v = Abstract.transfer_ip st mb in
    Alcotest.(check bool) "state is the update's" true
      (Abstract.equal st (Abstract.update m mb));
    v
  in
  Alcotest.(check (list int)) "victim is the oldest" [ 0 ] (transfer 4);
  Alcotest.(check (list int)) "no victim on refresh" [] (transfer 2)

let test_join_kind_mismatch () =
  let config = cfg () in
  Alcotest.(check bool) "kind mismatch raises" true
    (try
       ignore
         (Abstract.join
            (Abstract.empty config Abstract.Must)
            (Abstract.empty config Abstract.May));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* FIFO policy *)

let test_fifo_no_reorder_on_hit () =
  let c = Concrete.create ~policy:Concrete.Fifo (cfg ~assoc:2 ~block:16 ~cap:32 ()) in
  ignore (Concrete.access c 0);
  ignore (Concrete.access c 2);
  ignore (Concrete.access c 0);
  (* under FIFO the hit on 0 did not refresh it: 0 is still the oldest *)
  Alcotest.(check bool) "evicts first-in" true (Concrete.access c 4 = Concrete.Miss (Some 0))

let test_lru_vs_fifo_divergence () =
  let seq = [ 0; 2; 0; 4; 0; 2 ] in
  let run policy =
    let c = Concrete.create ~policy (cfg ~assoc:2 ~block:16 ~cap:32 ()) in
    List.map (fun mb -> Concrete.access c mb = Concrete.Hit) seq
  in
  Alcotest.(check bool) "policies diverge on this trace" true
    (run Concrete.Lru <> run Concrete.Fifo)

let prop_fifo_hits_subset_size =
  QCheck2.Test.make ~name:"fifo keeps at most assoc blocks per set" ~count:200
    QCheck2.Gen.(pair Ucp_testlib.gen_config Ucp_testlib.gen_access_sequence)
    (fun (config, seq) ->
      let c = Concrete.create ~policy:Concrete.Fifo config in
      List.iter (fun mb -> ignore (Concrete.access c mb)) seq;
      let ok = ref true in
      for s = 0 to config.Config.sets - 1 do
        if List.length (Concrete.resident_in_set c s) > config.Config.assoc then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Concrete: the residency views agree.  [contents], [resident_in_set]
   and [age] all answer "is this block cached?", and each access's
   outcome must match the answer given just before it. *)

let prop_residency_consistent policy =
  let pname = Ucp_policy.to_string policy in
  QCheck2.Test.make
    ~name:(pname ^ ": contents, ages and outcomes agree")
    ~count:300
    QCheck2.Gen.(pair Ucp_testlib.gen_config Ucp_testlib.gen_access_sequence)
    (fun (config, seq) ->
      let c = Concrete.create ~policy config in
      let resident mb = List.mem mb (Concrete.contents c) in
      let views_agree () =
        let by_set =
          List.init config.Config.sets (fun s ->
              let blocks = Concrete.resident_in_set c s in
              List.length blocks <= config.Config.assoc
              && List.for_all (fun mb -> Config.set_of_mem_block config mb = s) blocks,
              blocks)
        in
        List.for_all fst by_set
        && List.sort compare (List.concat_map snd by_set) = Concrete.contents c
        && List.for_all (fun mb -> Concrete.age c mb <> None) (Concrete.contents c)
      in
      List.for_all
        (fun mb ->
          let was = resident mb in
          let set_full =
            List.length (Concrete.resident_in_set c (Config.set_of_mem_block config mb))
            = config.Config.assoc
          in
          let before = Concrete.contents c in
          let outcome_ok =
            match Concrete.access c mb with
            | Concrete.Hit -> was
            | Concrete.Miss None -> (not was) && not set_full
            | Concrete.Miss (Some v) ->
              (not was) && set_full && List.mem v before && not (resident v)
              && Config.set_of_mem_block config v = Config.set_of_mem_block config mb
          in
          outcome_ok && resident mb && Concrete.age c mb <> None && views_agree ())
        seq)

(* ------------------------------------------------------------------ *)
(* Abstract vs Concrete: soundness properties *)

let run_concrete config seq =
  let c = Concrete.create config in
  List.iter (fun mb -> ignore (Concrete.access c mb)) seq;
  c

let run_abstract config kind seq =
  List.fold_left Abstract.update (Abstract.empty config kind) seq

let prop_must_sound =
  QCheck2.Test.make ~name:"must state is a subset of the concrete cache" ~count:400
    QCheck2.Gen.(pair Ucp_testlib.gen_config Ucp_testlib.gen_access_sequence)
    (fun (config, seq) ->
      let c = run_concrete config seq in
      let m = run_abstract config Abstract.Must seq in
      List.for_all (fun mb -> List.mem mb (Concrete.contents c)) (Abstract.blocks m))

let prop_may_complete =
  QCheck2.Test.make ~name:"concrete cache is a subset of the may state" ~count:400
    QCheck2.Gen.(pair Ucp_testlib.gen_config Ucp_testlib.gen_access_sequence)
    (fun (config, seq) ->
      let c = run_concrete config seq in
      let m = run_abstract config Abstract.May seq in
      List.for_all (fun mb -> Abstract.contains m mb) (Concrete.contents c))

let prop_must_age_upper_bound =
  QCheck2.Test.make ~name:"must ages bound concrete ages from above" ~count:400
    QCheck2.Gen.(pair Ucp_testlib.gen_config Ucp_testlib.gen_access_sequence)
    (fun (config, seq) ->
      let c = run_concrete config seq in
      let m = run_abstract config Abstract.Must seq in
      List.for_all
        (fun mb ->
          match (Concrete.age c mb, Abstract.age m mb) with
          | Some concrete, Some bound -> concrete <= bound
          | None, Some _ -> false
          | _, None -> true)
        (Abstract.blocks m))

(* Join soundness: the join over-approximates both inputs in the right
   direction (must: subset of both; may: superset of both), and is an
   upper bound of both in the domain order. *)
let prop_join_direction =
  QCheck2.Test.make ~name:"join keeps must below and may above its inputs" ~count:300
    QCheck2.Gen.(
      triple Ucp_testlib.gen_config Ucp_testlib.gen_access_sequence
        Ucp_testlib.gen_access_sequence)
    (fun (config, s1, s2) ->
      let must1 = run_abstract config Abstract.Must s1 in
      let must2 = run_abstract config Abstract.Must s2 in
      let mj = Abstract.join must1 must2 in
      let may1 = run_abstract config Abstract.May s1 in
      let may2 = run_abstract config Abstract.May s2 in
      let yj = Abstract.join may1 may2 in
      List.for_all
        (fun mb -> Abstract.contains must1 mb && Abstract.contains must2 mb)
        (Abstract.blocks mj)
      && List.for_all (fun mb -> Abstract.contains yj mb) (Abstract.blocks may1)
      && List.for_all (fun mb -> Abstract.contains yj mb) (Abstract.blocks may2)
      && List.for_all
           (fun (x, j) -> Abstract.leq x j && Abstract.leq j j)
           [ (must1, mj); (must2, mj); (may1, yj); (may2, yj) ])

(* A must-hit prediction must be a concrete hit for any continuation:
   classify before an access using the must state, then check the
   concrete outcome. *)
let prop_must_hits_are_hits =
  QCheck2.Test.make ~name:"must-predicted hits are concrete hits" ~count:400
    QCheck2.Gen.(pair Ucp_testlib.gen_config Ucp_testlib.gen_access_sequence)
    (fun (config, seq) ->
      let c = Concrete.create config in
      let m = ref (Abstract.empty config Abstract.Must) in
      List.for_all
        (fun mb ->
          let predicted_hit = Abstract.contains !m mb in
          let actual = Concrete.access c mb in
          m := Abstract.update !m mb;
          (not predicted_hit) || actual = Concrete.Hit)
        seq)

let prop_may_misses_are_misses =
  QCheck2.Test.make ~name:"may-predicted misses are concrete misses" ~count:400
    QCheck2.Gen.(pair Ucp_testlib.gen_config Ucp_testlib.gen_access_sequence)
    (fun (config, seq) ->
      let c = Concrete.create config in
      let m = ref (Abstract.empty config Abstract.May) in
      List.for_all
        (fun mb ->
          let predicted_miss = not (Abstract.contains !m mb) in
          let actual = Concrete.access c mb in
          m := Abstract.update !m mb;
          (not predicted_miss) || actual <> Concrete.Hit)
        seq)

(* ------------------------------------------------------------------ *)
(* Policy-parametric soundness: the same walk, under each policy's
   domains with the hint feedback the analysis uses — the access's own
   classification (must-hit / may-miss / unknown) is fed back into the
   abstract update, exactly as Analysis.transfer does. *)

let prop_policy_walk_sound policy =
  let pname = Ucp_policy.to_string policy in
  QCheck2.Test.make
    ~name:(pname ^ ": hint-driven must/may walk is sound vs concrete")
    ~count:400
    QCheck2.Gen.(pair Ucp_testlib.gen_config Ucp_testlib.gen_access_sequence)
    (fun (config, seq) ->
      let c = Concrete.create ~policy config in
      let must = ref (Abstract.empty ~policy config Abstract.Must) in
      let may = ref (Abstract.empty ~policy config Abstract.May) in
      let sound = ref true in
      List.iter
        (fun mb ->
          let predicted_hit = Abstract.contains !must mb in
          let predicted_miss = not (Abstract.contains !may mb) in
          let hint =
            if predicted_hit then Ucp_policy.Hit
            else if predicted_miss then Ucp_policy.Miss
            else Ucp_policy.Unknown
          in
          let actual = Concrete.access c mb in
          must := Abstract.update ~hint !must mb;
          may := Abstract.update ~hint !may mb;
          if predicted_hit && actual <> Concrete.Hit then sound := false;
          if predicted_miss && actual = Concrete.Hit then sound := false)
        seq;
      (* the sandwich must also hold in the final state *)
      !sound
      && List.for_all
           (fun mb -> List.mem mb (Concrete.contents c))
           (Abstract.blocks !must)
      && List.for_all (fun mb -> Abstract.contains !may mb) (Concrete.contents c))

let prop_policy_fill_sound policy =
  let pname = Ucp_policy.to_string policy in
  QCheck2.Test.make
    ~name:(pname ^ ": prefetch fills stay sound vs concrete")
    ~count:300
    QCheck2.Gen.(
      triple Ucp_testlib.gen_config Ucp_testlib.gen_access_sequence
        (list_size (int_range 1 20) (int_bound 12)))
    (fun (config, seq, fills) ->
      (* interleave demand accesses and prefetch fills, each fill an
         access of its block under its residency hint; the abstract
         transfer must keep the sandwich *)
      let c = Concrete.create ~policy config in
      let must = ref (Abstract.empty ~policy config Abstract.Must) in
      let may = ref (Abstract.empty ~policy config Abstract.May) in
      let hint_for mb =
        if Abstract.contains !must mb then Ucp_policy.Hit
        else if not (Abstract.contains !may mb) then Ucp_policy.Miss
        else Ucp_policy.Unknown
      in
      List.iteri
        (fun i mb ->
          if i mod 3 = 2 && fills <> [] then begin
            let fb = List.nth fills (i mod List.length fills) in
            let fhint = hint_for fb in
            ignore (Concrete.access c fb);
            must := Abstract.update ~hint:fhint !must fb;
            may := Abstract.update ~hint:fhint !may fb
          end;
          let hint = hint_for mb in
          ignore (Concrete.access c mb);
          must := Abstract.update ~hint !must mb;
          may := Abstract.update ~hint !may mb)
        seq;
      List.for_all
        (fun mb -> List.mem mb (Concrete.contents c))
        (Abstract.blocks !must)
      && List.for_all (fun mb -> Abstract.contains !may mb) (Concrete.contents c))

(* ------------------------------------------------------------------ *)
(* The per-set domains against the reference formulas of
   [Ucp_testlib.Reference_aset]: updates, joins and the order on
   random sorted sets, under both kinds and all three hints, and the
   victims of states reached by random walks.  Blocks sit above 2{^20},
   where the layout anchors code. *)

let shift = 1 lsl 20
let hints = [| Ucp_policy.Hit; Ucp_policy.Miss; Ucp_policy.Unknown |]

(* A set of distinct blocks from [shift + [0, 24)] sorted by block, with
   ages below [cap]. *)
let gen_aset ~cap =
  QCheck2.Gen.(
    map
      (fun l ->
        List.sort_uniq (fun (x, _) (y, _) -> compare x y) l
        |> List.map (fun (x, a) -> (shift + x, a)))
      (list_size (int_bound 10) (pair (int_bound 23) (int_bound (cap - 1)))))

let prop_aset_reference policy =
  let pname = Ucp_policy.to_string policy in
  let module P = (val Ucp_policy.find policy : Ucp_policy.POLICY) in
  let module R = Ucp_testlib.Reference_aset in
  let gen =
    QCheck2.Gen.(
      let* config = Ucp_testlib.gen_config in
      let assoc = config.Config.assoc in
      let* kind = oneofl [ Abstract.Must; Abstract.May ] in
      let cap =
        match (policy, kind) with
        | Ucp_policy.Plru, Abstract.Must -> Ucp_policy.plru_must_assoc assoc
        | _ -> assoc
      in
      let* a = gen_aset ~cap and* b = gen_aset ~cap in
      let* mb = map (( + ) shift) (int_bound 23) in
      let* walk = Ucp_testlib.gen_access_sequence in
      return (config, kind, a, b, mb, List.map (( + ) shift) walk))
  in
  let print (config, kind, a, b, mb, walk) =
    let set l = String.concat ";" (List.map (fun (x, a) -> Printf.sprintf "%d@%d" x a) l) in
    Printf.sprintf "%s %s a=[%s] b=[%s] mb=%d walk=[%s]" (Config.id config)
      (match kind with Abstract.Must -> "must" | Abstract.May -> "may")
      (set a) (set b) mb
      (String.concat ";" (List.map string_of_int walk))
  in
  QCheck2.Test.make
    ~name:(pname ^ ": set transfers match the reference formulas")
    ~count:400 ~print gen
    (fun (config, kind, a, b, mb, walk) ->
      let assoc = config.Config.assoc in
      let transfers_agree =
        Array.for_all
          (fun hint ->
            P.aset_update kind ~assoc ~hint a mb = R.update policy kind ~assoc ~hint a mb)
          hints
      in
      let j = P.aset_join kind a b in
      let order_agrees =
        List.for_all
          (fun (x, y) -> P.aset_leq kind x y = R.leq kind x y)
          [ (a, b); (b, a); (a, j); (j, a); (b, j); (a, a) ]
      in
      (* the victims [transfer_ip] reports at every step of a walk,
         against the reference on the set of the state the walk
         reached, and its state against the persistent transfer's *)
      let set_of st mb =
        let s = Config.set_of_mem_block config mb in
        List.filter_map
          (fun x ->
            if Config.set_of_mem_block config x = s then
              Option.map (fun age -> (x, age)) (Abstract.age st x)
            else None)
          (Abstract.blocks st)
      in
      let victims_agree, _ =
        List.fold_left
          (fun (ok, (i, st)) mb ->
            let hint = hints.(i mod 3) in
            let st' = Abstract.copy st in
            let v = Abstract.transfer_ip ~hint st' mb in
            let ok =
              ok
              && v = R.victims policy kind ~assoc ~hint (set_of st mb) mb
              && Abstract.equal st' (Abstract.update ~hint st mb)
            in
            (ok, (i + 1, st')))
          (true, (0, Abstract.empty ~policy config kind))
          walk
      in
      transfers_agree && j = R.join kind a b && order_agrees && victims_agree)

(* the destructive hot-loop variants are the same functions *)
let prop_inplace_equiv policy =
  let pname = Ucp_policy.to_string policy in
  QCheck2.Test.make
    ~name:(pname ^ ": in-place updates match the persistent ones")
    ~count:300
    QCheck2.Gen.(pair Ucp_testlib.gen_config Ucp_testlib.gen_access_sequence)
    (fun (config, seq) ->
      let seq = List.map (( + ) shift) seq in
      List.for_all
        (fun kind ->
          let pure = ref (Abstract.empty ~policy config kind) in
          let ip = Abstract.copy !pure in
          List.iteri
            (fun i mb ->
              let hint = hints.(i mod 3) in
              pure := Abstract.update ~hint !pure mb;
              Abstract.update_ip ~hint ip mb)
            seq;
          Abstract.equal !pure ip)
        [ Abstract.Must; Abstract.May ])

let () =
  Alcotest.run "ucp_cache"
    [
      ( "config",
        [
          Alcotest.test_case "derivation" `Quick test_config_derivation;
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "paper configs" `Quick test_paper_configs;
          Alcotest.test_case "scaled capacity" `Quick test_scaled_capacity;
        ] );
      ( "concrete",
        [
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction_order;
          Alcotest.test_case "set isolation" `Quick test_set_isolation;
          Alcotest.test_case "age tracking" `Quick test_age_tracking;
          Alcotest.test_case "copy" `Quick test_copy_independent;
        ] );
      ( "abstract",
        [
          Alcotest.test_case "must update" `Quick test_must_update_basics;
          Alcotest.test_case "must join intersects" `Quick test_must_join_intersects;
          Alcotest.test_case "must join max age" `Quick test_must_join_max_age;
          Alcotest.test_case "may join unions" `Quick test_may_join_unions;
          Alcotest.test_case "victims" `Quick test_victims;
          Alcotest.test_case "kind mismatch" `Quick test_join_kind_mismatch;
        ] );
      ( "fifo",
        [
          Alcotest.test_case "no reorder on hit" `Quick test_fifo_no_reorder_on_hit;
          Alcotest.test_case "lru/fifo diverge" `Quick test_lru_vs_fifo_divergence;
          QCheck_alcotest.to_alcotest prop_fifo_hits_subset_size;
        ] );
      ( "consistency",
        List.map
          (fun policy -> QCheck_alcotest.to_alcotest (prop_residency_consistent policy))
          Ucp_policy.all );
      ( "soundness",
        [
          QCheck_alcotest.to_alcotest prop_must_sound;
          QCheck_alcotest.to_alcotest prop_may_complete;
          QCheck_alcotest.to_alcotest prop_must_age_upper_bound;
          QCheck_alcotest.to_alcotest prop_join_direction;
          QCheck_alcotest.to_alcotest prop_must_hits_are_hits;
          QCheck_alcotest.to_alcotest prop_may_misses_are_misses;
        ] );
      ( "policies",
        List.concat_map
          (fun policy ->
            [
              QCheck_alcotest.to_alcotest (prop_policy_walk_sound policy);
              QCheck_alcotest.to_alcotest (prop_policy_fill_sound policy);
            ])
          Ucp_policy.all );
      ( "domains",
        List.concat_map
          (fun policy ->
            [
              QCheck_alcotest.to_alcotest (prop_aset_reference policy);
              QCheck_alcotest.to_alcotest (prop_inplace_equiv policy);
            ])
          Ucp_policy.all );
    ]
