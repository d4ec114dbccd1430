module Q = Ucp_lp.Rational
module Simplex = Ucp_lp.Simplex
module Ilp = Ucp_lp.Ilp
module Wcet = Ucp_wcet.Wcet
module Analysis = Ucp_wcet.Analysis
module Ipet = Ucp_wcet.Ipet
module Classification = Ucp_wcet.Classification
module Vivu = Ucp_cfg.Vivu
module Program = Ucp_isa.Program
module Instr = Ucp_isa.Instr
module Simulator = Ucp_sim.Simulator
module Optimizer = Ucp_prefetch.Optimizer
module Cacti = Ucp_energy.Cacti

(* ------------------------------------------------------------------ *)
(* Audit modes *)

type mode = Off | Sample of int | Full

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "off" -> Ok Off
  | "full" -> Ok Full
  | s -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "sample" -> (
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt arg with
      | Some n when n >= 1 -> Ok (Sample n)
      | _ -> Error (Printf.sprintf "audit: bad sample rate %S (want sample:N, N >= 1)" arg))
    | _ -> Error (Printf.sprintf "audit: unknown mode %S (want off|sample:N|full)" s))

let mode_to_string = function
  | Off -> "off"
  | Full -> "full"
  | Sample n -> Printf.sprintf "sample:%d" n

(* Deterministic 1-in-N selection keyed by the case id, so a resumed or
   re-run sweep audits the same cases. *)
let selects mode id =
  match mode with
  | Off -> false
  | Full -> true
  | Sample n -> Hashtbl.hash id mod n = 0

(* ------------------------------------------------------------------ *)
(* Helpers: every check returns (unit, string) result where the error
   names the violated obligation first, then the numbers. *)

let ( let* ) = Result.bind

let fail obligation fmt =
  Printf.ksprintf (fun s -> Error (obligation ^ ": " ^ s)) fmt

let q_to_string v = Format.asprintf "%a" Q.pp v

let dot coeffs x =
  let acc = ref Q.zero in
  Array.iteri (fun j c -> acc := Q.add !acc (Q.mul c x.(j))) coeffs;
  !acc

(* ------------------------------------------------------------------ *)
(* LP certificates *)

(* Direct check of the stored primal/dual pair — linear passes over the
   tableau data in exact rationals, no pivots.  The checking itself
   lives next to the solver in {!Ucp_lp.Simplex} (it is generic LP
   machinery, not audit policy); this wrapper just keeps the audit's
   historical entry point. *)
let certify_lp ?minimize problem sol = Simplex.check_certificate ?minimize problem sol

let certify_ilp (problem : Simplex.problem) ~(value : Q.t) ~(assignment : int array) =
  let n = problem.Simplex.num_vars in
  let* () =
    if Array.length assignment <> n then
      fail "ilp-shape" "assignment has %d entries, want %d" (Array.length assignment) n
    else Ok ()
  in
  let* () =
    let bad = ref None in
    Array.iteri (fun j x -> if !bad = None && x < 0 then bad := Some j) assignment;
    match !bad with
    | Some j -> fail "ilp-feasible" "x_%d = %d < 0" j assignment.(j)
    | None -> Ok ()
  in
  let xq = Array.map Q.of_int assignment in
  let* () =
    let bad = ref None in
    List.iteri
      (fun i (coeffs, op, rhs) ->
        if !bad = None then begin
          let lhs = dot coeffs xq in
          let ok =
            match op with
            | Simplex.Le -> Q.compare lhs rhs <= 0
            | Simplex.Ge -> Q.compare lhs rhs >= 0
            | Simplex.Eq -> Q.equal lhs rhs
          in
          if not ok then bad := Some (i, lhs, rhs)
        end)
      problem.Simplex.constraints;
    match !bad with
    | Some (i, lhs, rhs) ->
      fail "ilp-feasible" "row %d violated: lhs %s vs rhs %s" i (q_to_string lhs)
        (q_to_string rhs)
    | None -> Ok ()
  in
  let cx = dot problem.Simplex.objective xq in
  if not (Q.equal cx value) then
    fail "ilp-objective" "c^T x = %s but claimed value = %s" (q_to_string cx)
      (q_to_string value)
  else Ok ()

(* ------------------------------------------------------------------ *)
(* IPET certification: prove that the DAG longest-path tau_w is a sound
   and exact bound for the flow model.

   Fast path (no solver): re-derive the per-node costs from the
   classifications and the timing model, cross-check tau against an
   independently-coded longest-path DP, then verify the combinatorial
   flow certificate {!Wcet.flow_certificate} — per-node suffix bounds
   X plus per-rest-header lap charges Lam, morally the flow LP's dual —
   by linear passes over the expanded graph's edges (conditions C0-C4,
   see {!Wcet.flow_cert}).  Slow path (any fast-path shortfall, e.g. a
   certificate the constructor could not close): the historical
   simplex root solve with direct dual-certificate checking, plus the
   exact ILP on an integrality gap. *)

let cycles_of model cls =
  if Classification.is_wcet_miss cls then
    model.Cacti.hit_cycles + model.Cacti.miss_penalty
  else model.Cacti.hit_cycles

(* Per-node costs re-derived from classifications + model alone,
   without trusting [w.node_cycles]. *)
let derive_node_cycles (w : Wcet.t) =
  let analysis = w.Wcet.analysis in
  let vivu = Analysis.vivu analysis in
  let program = Vivu.program vivu in
  Array.init (Vivu.node_count vivu) (fun id ->
      let nd = Vivu.node vivu id in
      let acc = ref 0 in
      for pos = 0 to Program.slots program nd.Vivu.block - 1 do
        acc := !acc + cycles_of w.Wcet.model (Analysis.classif analysis ~node:id ~pos)
      done;
      !acc)

(* Independent longest-path DP over the expanded DAG with the
   re-derived costs: tau must be exactly the mult-weighted optimum. *)
let check_longest_path (w : Wcet.t) c =
  let vivu = Analysis.vivu w.Wcet.analysis in
  let n = Vivu.node_count vivu in
  let entry = Vivu.entry vivu in
  let dist = Array.make n min_int in
  Array.iter
    (fun id ->
      let weight = c.(id) * Vivu.mult vivu id in
      if id = entry then dist.(id) <- weight
      else begin
        let best = ref min_int in
        List.iter (fun p -> if dist.(p) > !best then best := dist.(p)) (Vivu.dag_pred vivu id);
        if !best > min_int then dist.(id) <- !best + weight
      end)
    (Vivu.topo vivu);
  let best =
    List.fold_left (fun acc e -> max acc dist.(e)) min_int (Vivu.exit_nodes vivu)
  in
  if best = min_int then fail "ipet-longest-path" "no exit reachable from the entry"
  else if best <> w.Wcet.tau then
    fail "ipet-longest-path" "independent longest path re-derives %d, claimed tau_w = %d"
      best w.Wcet.tau
  else Ok ()

(* Check the flow certificate's conditions C0-C4 against independently
   re-derived costs.  Linear in nodes + edges. *)
let check_flow_cert (w : Wcet.t) c (cert : Wcet.flow_cert) =
  let vivu = Analysis.vivu w.Wcet.analysis in
  let n = Vivu.node_count vivu in
  let x = cert.Wcet.fc_x and lam = cert.Wcet.fc_lam in
  let* () =
    if Array.length x <> n || Array.length lam <> n then
      fail "flow-cert-shape" "certificate arrays have %d/%d entries, want %d"
        (Array.length x) (Array.length lam) n
    else Ok ()
  in
  let k = Wcet.rest_budget vivu in
  let entry_charge v = match k.(v) with Some kv -> (kv - 1) * lam.(v) | None -> 0 in
  let err = ref None in
  let report fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  for v = 0 to n - 1 do
    if !err = None then begin
      (* C0: lap charges are nonnegative at rest headers *)
      (match k.(v) with
      | Some _ when lam.(v) < 0 -> report "C0: Lam_%d = %d < 0" v lam.(v)
      | _ -> ());
      (* C3: a walk may stop anywhere, X covers at least the node itself *)
      if !err = None && x.(v) < c.(v) then
        report "C3: X_%d = %d < c_%d = %d" v x.(v) v c.(v);
      (* C1 over DAG edges; edges into zero-budget rest headers are
         exempt — the execution model cannot enter them at all *)
      if !err = None then
        List.iter
          (fun s ->
            if !err = None && k.(s) <> Some 0 && x.(v) < c.(v) + x.(s) + entry_charge s
            then
              report "C1: X_%d = %d < c_%d + X_%d + charge = %d on DAG edge %d->%d" v
                x.(v) v s
                (c.(v) + x.(s) + entry_charge s)
                v s)
          (Vivu.dag_succ vivu v);
      (* C2 over iteration edges: each lap refunds one Lam *)
      if !err = None then
        List.iter
          (fun h ->
            if !err = None then
              if k.(h) = None then
                report "C2: iteration edge %d->%d targets a non-rest-header" v h
              else if x.(v) < c.(v) + x.(h) - lam.(h) then
                report "C2: X_%d = %d < c_%d + X_%d - Lam_%d = %d on iteration edge"
                  v x.(v) v h h
                  (c.(v) + x.(h) - lam.(h)))
          (Vivu.iter_succ vivu v)
    end
  done;
  match !err with
  | Some msg -> fail "flow-cert" "%s" msg
  | None ->
    (* C4: the entry bound is exactly the claimed tau *)
    let entry = Vivu.entry vivu in
    if x.(entry) <> w.Wcet.tau then
      fail "flow-cert" "C4: X_entry = %d, claimed tau_w = %d" x.(entry) w.Wcet.tau
    else Ok ()

(* The historical solver-based path, kept as the authoritative fallback:
   root LP solve with direct dual-certificate checking, exact ILP plus
   agreement on an integrality gap. *)
let certify_ipet_solver ?deadline (w : Wcet.t) =
  let problem, _n = Ipet.build w in
  let tau_q = Q.of_int w.Wcet.tau in
  match Simplex.maximize ?deadline problem with
  | Simplex.Infeasible -> fail "ipet-lp" "flow relaxation infeasible"
  | Simplex.Unbounded -> fail "ipet-lp" "flow relaxation unbounded"
  | Simplex.Optimal sol ->
    let* () = certify_lp problem sol in
    if Q.compare tau_q sol.Simplex.value > 0 then
      fail "ipet-upper-bound" "tau_w = %d exceeds the certified LP optimum %s"
        w.Wcet.tau
        (q_to_string sol.Simplex.value)
    else if Q.equal sol.Simplex.value tau_q then Ok ()
    else begin
      (* Integrality gap at the root: fall back to the exact ILP and
         require agreement (two independent algorithms, one answer). *)
      match Ilp.maximize ?deadline problem with
      | Ilp.Infeasible -> fail "ipet-ilp" "flow model infeasible"
      | Ilp.Unbounded -> fail "ipet-ilp" "flow model unbounded"
      | Ilp.Optimal { value; assignment } ->
        let* () = certify_ilp problem ~value ~assignment in
        if Q.equal value tau_q then Ok ()
        else
          fail "ipet-ilp-agreement" "tau_w = %d but the ILP optimum is %s" w.Wcet.tau
            (q_to_string value)
    end

let certify_ipet ?deadline (w : Wcet.t) =
  let c = derive_node_cycles w in
  (* The cross-check runs on both paths: tau must equal an
     independently-coded longest path over the re-derived costs. *)
  let* () = check_longest_path w c in
  let fast =
    match Wcet.flow_certificate w with
    | None -> Error "flow-cert: constructor did not converge"
    | Some cert -> check_flow_cert w c cert
  in
  match fast with
  | Ok () ->
    Ucp_obs.Metrics.incr (Ucp_obs.Metrics.counter "audit_ipet_fastpath_total");
    Ok ()
  | Error reason ->
    (* Any fast-path shortfall — an unclosable certificate, a genuine
       violation — defers to the solver, which is authoritative. *)
    Ucp_obs.Metrics.incr (Ucp_obs.Metrics.counter "audit_ipet_slowpath_total");
    Ucp_obs.Log.debug "audit: ipet fast path failed (%s), falling back to the LP" reason;
    certify_ipet_solver ?deadline w

(* ------------------------------------------------------------------ *)
(* WCET witness replay *)

exception Replay_abort

let replay_witness ?(seed = 42) (w : Wcet.t) =
  let analysis = w.Wcet.analysis in
  let vivu = Analysis.vivu analysis in
  let program = Vivu.program vivu in
  let config = Analysis.config analysis in
  let policy = Analysis.policy analysis in
  let model = w.Wcet.model in
  let path = w.Wcet.path in
  let len = Array.length path in
  let block_of id = (Vivu.node vivu id).Vivu.block in
  (* Structural validity: the witness must be a real walk of the
     expanded DAG, which by VIVU construction projects to a real CFG
     execution — entry first, DAG edges between steps, terminators
     agreeing with the projected block sequence, a reachable exit
     last. *)
  let* () =
    if len = 0 then fail "witness-path" "empty path"
    else if path.(0) <> Vivu.entry vivu then
      fail "witness-path" "does not start at the entry node"
    else Ok ()
  in
  let* () =
    let bad = ref None in
    for i = 0 to len - 2 do
      if !bad = None then begin
        let u = path.(i) and v = path.(i + 1) in
        if not (List.mem v (Vivu.dag_succ vivu u)) then
          bad := Some (Printf.sprintf "step %d: no DAG edge %d -> %d" i u v)
        else begin
          let b = Program.block program (block_of u) in
          let ok =
            match b.Program.term with
            | Program.Fallthrough t | Program.Jump { target = t; _ } ->
              block_of v = t
            | Program.Cond { taken; fallthrough; _ } ->
              block_of v = taken || block_of v = fallthrough
            | Program.Return _ -> false
          in
          if not ok then
            bad :=
              Some
                (Printf.sprintf "step %d: block %d cannot fall to block %d" i
                   (block_of u) (block_of v))
        end
      end
    done;
    match !bad with Some msg -> fail "witness-path" "%s" msg | None -> Ok ()
  in
  let* () =
    if not (List.mem path.(len - 1) (Vivu.exit_nodes vivu)) then
      fail "witness-path" "does not end at an exit node"
    else Ok ()
  in
  (* n_w / on_path bookkeeping the optimizer and reports rely on. *)
  let* () =
    let on = Array.make (Vivu.node_count vivu) false in
    Array.iter (fun id -> on.(id) <- true) path;
    let bad = ref None in
    for id = 0 to Vivu.node_count vivu - 1 do
      if !bad = None then begin
        if w.Wcet.on_path.(id) <> on.(id) then
          bad := Some (Printf.sprintf "on_path.(%d) disagrees with the path" id)
        else begin
          let want = if on.(id) then Vivu.mult vivu id else 0 in
          if w.Wcet.n_w.(id) <> want then
            bad := Some (Printf.sprintf "n_w.(%d) = %d, want %d" id w.Wcet.n_w.(id) want)
        end
      end
    done;
    match !bad with Some msg -> fail "witness-counts" "%s" msg | None -> Ok ()
  in
  (* Abstract re-derivation of tau_w: sum the per-slot WCET charges
     along the witness from the classifications and the timing model
     alone, without trusting node_cycles. *)
  let* () =
    let tau' = ref 0 in
    Array.iter
      (fun id ->
        let mult = Vivu.mult vivu id in
        for pos = 0 to Program.slots program (block_of id) - 1 do
          tau' := !tau' + (mult * cycles_of model (Analysis.classif analysis ~node:id ~pos))
        done)
      path;
    if !tau' <> w.Wcet.tau then
      fail "witness-tau" "path charges re-derive to %d, claimed tau_w = %d" !tau'
        w.Wcet.tau
    else Ok ()
  in
  (* Concrete replay: force the simulator down the witness and check
     every Always-Hit (resp. Always-Miss) classification against the
     concrete cache state, per policy.  The witness references are the
     slots of the path's nodes in order ({!Wcet.path_refs}); a cursor
     (path step, slot) walks them as the fetches arrive. *)
  let slots_of id = Program.slots program (block_of id) in
  let n_refs = Array.fold_left (fun acc id -> acc + slots_of id) 0 path in
  let decisions = Queue.create () in
  for i = 0 to len - 2 do
    match (Program.block program (block_of path.(i))).Program.term with
    | Program.Cond { taken; _ } ->
      Queue.add (block_of path.(i), block_of path.(i + 1) = taken) decisions
    | _ -> ()
  done;
  let err = ref None in
  let abort msg =
    if !err = None then err := Some msg;
    raise Replay_abort
  in
  let idx = ref 0 and step = ref 0 and slot = ref 0 in
  let on_fetch ~block ~pos ~hit =
    (* skip the steps whose block has no slot left, empty ones included *)
    while !step < len && !slot >= slots_of path.(!step) do
      incr step;
      slot := 0
    done;
    if !step >= len then
      abort
        (Printf.sprintf "witness-refs: fetch %d of (%d,%d) beyond the %d witness refs"
           !idx block pos n_refs);
    let node = path.(!step) and wpos = !slot in
    if block_of node <> block || wpos <> pos then
      abort
        (Printf.sprintf
           "witness-refs: fetch %d at (%d,%d) but the witness expects (%d,%d)" !idx
           block pos (block_of node) wpos);
    (match Analysis.classif analysis ~node ~pos with
    | Classification.Always_hit ->
      if not hit then
        abort
          (Printf.sprintf
             "always-hit: slot (%d,%d) classified Always_hit missed concretely under %s"
             block pos
             (Ucp_policy.to_string policy))
    | Classification.Always_miss ->
      if hit then
        abort
          (Printf.sprintf
             "always-miss: slot (%d,%d) classified Always_miss hit concretely under %s"
             block pos
             (Ucp_policy.to_string policy))
    | Classification.Not_classified -> ());
    incr slot;
    incr idx
  in
  let branch_oracle block =
    if Queue.is_empty decisions then
      abort (Printf.sprintf "witness-branches: block %d branches beyond the witness" block);
    let b, d = Queue.pop decisions in
    if b <> block then
      abort
        (Printf.sprintf "witness-branches: conditional at block %d, witness expects %d"
           block b);
    d
  in
  let stats =
    try Ok (Simulator.run ~seed ~policy ~on_fetch ~branch_oracle program config model)
    with
    | Replay_abort ->
      Error (match !err with Some m -> m | None -> "witness-replay: aborted")
    | Simulator.Step_limit_exceeded _ as e -> Error ("witness-replay: " ^ Printexc.to_string e)
  in
  let* stats = stats in
  let* () = match !err with Some msg -> Error msg | None -> Ok () in
  let* () =
    if !idx <> n_refs then
      fail "witness-refs" "replay fetched %d of %d witness references" !idx n_refs
    else if not (Queue.is_empty decisions) then
      fail "witness-branches" "%d witness branch decisions left unconsumed"
        (Queue.length decisions)
    else Ok ()
  in
  (* Bound direction: the concrete cost of the witness execution may
     not exceed the abstract bound, and late-prefetch stalls may not
     exceed the residual charge (the d >= Lambda effectiveness
     obligation; exact when the residual is zero). *)
  let bound = Wcet.tau_with_residual w in
  let residual = Wcet.residual_prefetch_stall w in
  if stats.Simulator.counts.Ucp_energy.Account.cycles > bound then
    fail "witness-tau-bound" "replayed witness cost %d cycles, bound is %d"
      stats.Simulator.counts.Ucp_energy.Account.cycles bound
  else if stats.Simulator.late_prefetch_stall_cycles > residual then
    fail "prefetch-effectiveness" "witness stalled %d cycles on prefetches, residual charge is %d"
      stats.Simulator.late_prefetch_stall_cycles residual
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Optimizer audit trail *)

let audit_trail ~(original : Wcet.t) ~(optimized : Wcet.t)
    (r : Optimizer.result) =
  (* Each analysis must be of the program the result names for its
     side, so the original's analysis can never stand in for a changed
     program (DESIGN.md §24). *)
  let* () =
    let of_program side (w : Wcet.t) p =
      let analysed = Vivu.program (Analysis.vivu w.Wcet.analysis) in
      if analysed == p || analysed = p then Ok ()
      else
        fail "optimizer-program" "the %s analysis is not of the result's %s program"
          side side
    in
    let* () = of_program "original" original r.Optimizer.original in
    of_program "optimized" optimized r.Optimizer.program
  in
  (* Endpoints re-derived from independent analyses: the optimizer's
     claimed before/after figures must match without trusting its
     arithmetic.  tau_with_residual and miss_count_bound are invariant
     under with_may, so the pipeline's may-enabled analyses re-derive
     the optimizer's may-free inner figures exactly. *)
  let tau0 = Wcet.tau_with_residual original in
  let tau1 = Wcet.tau_with_residual optimized in
  let m0 = Analysis.miss_count_bound original.Wcet.analysis in
  let m1 = Analysis.miss_count_bound optimized.Wcet.analysis in
  let* () =
    if r.Optimizer.tau_before <> tau0 then
      fail "optimizer-tau-before" "claimed %d, independent analysis derives %d"
        r.Optimizer.tau_before tau0
    else Ok ()
  in
  let* () =
    if r.Optimizer.tau_after <> tau1 then
      fail "optimizer-tau-after" "claimed %d, independent analysis derives %d"
        r.Optimizer.tau_after tau1
    else Ok ()
  in
  let* () =
    if tau1 > tau0 then
      fail "theorem-1" "tau_w grew from %d to %d" tau0 tau1
    else Ok ()
  in
  (* Equation 5-9 / Theorem 1 per accepted round, chained so the claims
     connect the independent endpoints without gaps. *)
  let trail = r.Optimizer.trail in
  let* () =
    match trail with
    | [] ->
      if r.Optimizer.insertions <> [] then
        fail "optimizer-trail" "%d insertions but an empty audit trail"
          (List.length r.Optimizer.insertions)
      else if tau1 <> tau0 then
        fail "optimizer-trail" "no accepted round but tau changed %d -> %d" tau0 tau1
      else Ok ()
    | first :: _ ->
      let rec chain i prev = function
        | [] -> Ok ()
        | (rd : Optimizer.round) :: tl ->
          let* () =
            match prev with
            | Some (pt, pm) ->
              if rd.Optimizer.round_tau_before <> pt then
                fail "optimizer-trail" "round %d tau_before %d breaks the chain (prev after %d)"
                  i rd.Optimizer.round_tau_before pt
              else if rd.Optimizer.round_misses_before <> pm then
                fail "optimizer-trail" "round %d misses_before %d breaks the chain (prev after %d)"
                  i rd.Optimizer.round_misses_before pm
              else Ok ()
            | None -> Ok ()
          in
          let* () =
            if rd.Optimizer.round_tau_after > rd.Optimizer.round_tau_before then
              fail "eq5-9-acceptance" "round %d grew tau %d -> %d" i
                rd.Optimizer.round_tau_before rd.Optimizer.round_tau_after
            else if
              rd.Optimizer.round_misses_after >= rd.Optimizer.round_misses_before
              && rd.Optimizer.round_tau_after >= rd.Optimizer.round_tau_before
            then
              fail "eq5-9-acceptance"
                "round %d improves neither the miss bound (%d -> %d) nor tau (%d -> %d)"
                i rd.Optimizer.round_misses_before rd.Optimizer.round_misses_after
                rd.Optimizer.round_tau_before rd.Optimizer.round_tau_after
            else if rd.Optimizer.round_insertions = [] then
              fail "optimizer-trail" "round %d accepted no insertion" i
            else Ok ()
          in
          chain (i + 1)
            (Some (rd.Optimizer.round_tau_after, rd.Optimizer.round_misses_after))
            tl
      in
      let* () =
        if first.Optimizer.round_tau_before <> tau0 then
          fail "optimizer-trail" "first round tau_before %d, independent analysis derives %d"
            first.Optimizer.round_tau_before tau0
        else if first.Optimizer.round_misses_before <> m0 then
          fail "optimizer-trail" "first round misses_before %d, independent analysis derives %d"
            first.Optimizer.round_misses_before m0
        else Ok ()
      in
      let* () = chain 0 None trail in
      let last = List.nth trail (List.length trail - 1) in
      if last.Optimizer.round_tau_after <> tau1 then
        fail "optimizer-trail" "last round tau_after %d, independent analysis derives %d"
          last.Optimizer.round_tau_after tau1
      else if last.Optimizer.round_misses_after <> m1 then
        fail "optimizer-trail" "last round misses_after %d, independent analysis derives %d"
          last.Optimizer.round_misses_after m1
      else Ok ()
  in
  (* Every accepted prefetch must be materialized in the final program
     exactly as recorded (mcost - pcost > 0 admitted it, Equation 9). *)
  let* () =
    let bad = ref None in
    List.iter
      (fun (ins : Optimizer.insertion) ->
        if !bad = None && ins.Optimizer.est_gain <= 0 then
          bad :=
            Some
              (Printf.sprintf "prefetch %d admitted with nonpositive gain %d"
                 ins.Optimizer.prefetch_uid ins.Optimizer.est_gain))
      r.Optimizer.insertions;
    match !bad with Some msg -> fail "mcost-pcost" "%s" msg | None -> Ok ()
  in
  let* () =
    let bad = ref None in
    List.iter
      (fun (rd : Optimizer.round) ->
        List.iter
          (fun (pf_uid, target_uid) ->
            if !bad = None then
              match Program.find_uid r.Optimizer.program pf_uid with
              | None ->
                bad := Some (Printf.sprintf "prefetch uid %d absent from the program" pf_uid)
              | Some (block, pos) -> (
                let instr = Program.slot_instr r.Optimizer.program ~block ~pos in
                match instr.Instr.kind with
                | Instr.Prefetch t when t = target_uid -> ()
                | Instr.Prefetch t ->
                  bad :=
                    Some
                      (Printf.sprintf "prefetch uid %d targets %d, trail says %d" pf_uid
                         t target_uid)
                | Instr.Compute ->
                  bad :=
                    Some (Printf.sprintf "uid %d is not a prefetch instruction" pf_uid)))
          rd.Optimizer.round_insertions)
      trail;
    match !bad with Some msg -> fail "optimizer-materialized" "%s" msg | None -> Ok ()
  in
  let trail_count =
    List.fold_left (fun acc (rd : Optimizer.round) ->
        acc + List.length rd.Optimizer.round_insertions)
      0 trail
  in
  let* () =
    if trail_count <> List.length r.Optimizer.insertions then
      fail "optimizer-trail" "trail records %d insertions, result lists %d" trail_count
        (List.length r.Optimizer.insertions)
    else Ok ()
  in
  if not (Program.prefetch_equivalent r.Optimizer.original r.Optimizer.program) then
    fail "prefetch-equivalent" "optimized program is not prefetch-equivalent to the original"
  else Ok ()

(* ------------------------------------------------------------------ *)
(* One-case orchestration *)

type verdict =
  | Certified of { checks : int; seconds : float }
  | Skipped of { reason : string }

(* Re-run the exact classification refinement from the audited side's
   own analysis and require byte-identical digests: the digest covers
   every reclassification and the bounds derived from them, so any
   tampering between measurement and record (the corrupt-refine fault,
   a stale cache, a bug) surfaces deterministically.  The recomputed
   refined WCET then goes through the same concrete witness replay as
   the unrefined ones — an unsound exploration verdict on the witness
   path fails there even if the digests agree. *)
let check_refine ?deadline ?seed ~mode side (w : Wcet.t)
    (measured : Ucp_refine.Explore.summary option) =
  match Ucp_refine.Explore.run ?deadline ~mode w with
  | exception Ucp_refine.Explore.Unsound msg ->
    fail ("refine-" ^ side) "exploration contradicts the abstract analysis: %s" msg
  | None -> (
    match measured with
    | None -> Ok ()
    | Some s ->
      fail ("refine-" ^ side)
        "record carries a refinement (digest %s) but recomputation declines"
        s.Ucp_refine.Explore.s_digest)
  | Some (s', refined_w) -> (
    match measured with
    | None ->
      fail ("refine-" ^ side) "recomputation refines (digest %s) but the record has none"
        s'.Ucp_refine.Explore.s_digest
    | Some s ->
      let* () =
        if s.Ucp_refine.Explore.s_digest <> s'.Ucp_refine.Explore.s_digest then
          fail ("refine-" ^ side) "digest mismatch: recorded %s, recomputed %s"
            s.Ucp_refine.Explore.s_digest s'.Ucp_refine.Explore.s_digest
        else Ok ()
      in
      replay_witness ?seed refined_w)

let audit_case ?deadline ?seed ?(corrupt = false)
    ?(refine = (Ucp_refine.Mode.Off, None, None)) ~(original : Wcet.t)
    ~(optimized : Wcet.t) (r : Optimizer.result) =
  if
    not
      (Analysis.is_plain original.Wcet.analysis
      && Analysis.is_plain optimized.Wcet.analysis)
  then
    (* The witness replay cannot drive the simulator through pinned
       (locked-way) semantics; an honest Skipped verdict beats a
       silent pass. *)
    Ok
      (Skipped
         {
           reason =
             "non-plain analysis (pinned/locked ways): witness replay unsupported";
         })
  else begin
    (* Fault-injection hook: perturb one certificate field (the claimed
       optimized tau) so the audit must catch the corruption. *)
    let r =
      if corrupt then { r with Optimizer.tau_after = r.Optimizer.tau_after + 1 } else r
    in
    (* One measured interval per obligation feeds the metrics registry
       AND the verdict's seconds, so a record's [audit_s] and the
       registry's [audit_seconds_total] add up the same intervals. *)
    let elapsed = ref 0.0 in
    let obligation name check =
      Ucp_obs.Trace.with_span ~name:"audit-obligation"
        ~args:[ ("obligation", Ucp_obs.Trace.Str name) ] (fun () ->
          Ucp_obs.Metrics.incr (Ucp_obs.Metrics.counter "audit_obligations_total");
          let t0 = Ucp_util.Clock.now_s () in
          let res = check () in
          let d = Ucp_util.Clock.now_s () -. t0 in
          elapsed := !elapsed +. d;
          Ucp_obs.Metrics.fadd (Ucp_obs.Metrics.fcounter "audit_seconds_total") d;
          res)
    in
    let refine_mode, refine_original, refine_optimized = refine in
    let with_refine = refine_mode <> Ucp_refine.Mode.Off in
    (* One analysis and one refinement summary for both sides: every
       per-side check is a deterministic function of them, so the
       optimized side's obligation takes the verdict the original
       side's check already gave — reaching it means that verdict was
       Ok.  The trail still checks that this analysis is of both
       programs the result names. *)
    let shared = original == optimized && refine_original = refine_optimized in
    let optimized_obligation name check =
      obligation name (fun () -> if shared then Ok () else check ())
    in
    let result =
      let* () = obligation "ipet-original" (fun () -> certify_ipet ?deadline original) in
      let* () =
        optimized_obligation "ipet-optimized" (fun () -> certify_ipet ?deadline optimized)
      in
      let* () = obligation "witness-original" (fun () -> replay_witness ?seed original) in
      let* () =
        optimized_obligation "witness-optimized" (fun () -> replay_witness ?seed optimized)
      in
      let* () = obligation "trail" (fun () -> audit_trail ~original ~optimized r) in
      if not with_refine then Ok ()
      else
        let* () =
          obligation "refine-original" (fun () ->
              check_refine ?deadline ?seed ~mode:refine_mode "original" original
                refine_original)
        in
        optimized_obligation "refine-optimized" (fun () ->
            check_refine ?deadline ?seed ~mode:refine_mode "optimized" optimized
              refine_optimized)
    in
    match result with
    | Ok () ->
      Ok (Certified { checks = (if with_refine then 7 else 5); seconds = !elapsed })
    | Error msg -> Error msg
  end
