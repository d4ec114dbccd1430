module Vivu = Ucp_cfg.Vivu
module Loops = Ucp_cfg.Loops
module Q = Ucp_lp.Rational
module Simplex = Ucp_lp.Simplex
module Ilp = Ucp_lp.Ilp

type result = {
  tau : int;
  counts : int array;
}

exception Unsolvable_flow_model of { solver : string; unbounded : bool }

let () =
  Printexc.register_printer (function
    | Unsolvable_flow_model { solver; unbounded } ->
      Some
        (Printf.sprintf "Ipet.%s: %s flow model" solver
           (if unbounded then "unbounded" else "infeasible"))
    | _ -> None)

(* the optimum of a flow problem whose first [n] variables are the
   counts *)
let optimum ~solver ?deadline problem n =
  match Ilp.maximize ?deadline problem with
  | Ilp.Optimal { value; assignment } ->
    { tau = Q.to_int_exn value; counts = Array.sub assignment 0 n }
  | Ilp.Infeasible -> raise (Unsolvable_flow_model { solver; unbounded = false })
  | Ilp.Unbounded -> raise (Unsolvable_flow_model { solver; unbounded = true })

(* Variables: one count per expanded node, one flow per edge (DAG and
   iteration edges), a unit entry flow, and one exit flow per exit node. *)
let build wcet =
  let analysis = wcet.Wcet.analysis in
  let vivu = Analysis.vivu analysis in
  let n = Vivu.node_count vivu in
  let edges = ref [] in
  for u = 0 to n - 1 do
    List.iter (fun v -> edges := (u, v, `Dag) :: !edges) (Vivu.dag_succ vivu u)
  done;
  for v = 0 to n - 1 do
    List.iter (fun u -> edges := (u, v, `Iter) :: !edges) (Vivu.iter_pred vivu v)
  done;
  let edges = Array.of_list (List.rev !edges) in
  let n_edges = Array.length edges in
  let exits = Vivu.exit_nodes vivu in
  let n_exits = List.length exits in
  let var_node v = v in
  let var_edge e = n + e in
  let var_entry = n + n_edges in
  let var_exit i = n + n_edges + 1 + i in
  let num_vars = n + n_edges + 1 + n_exits in
  let constraints = ref [] in
  let row () = Array.make num_vars Q.zero in
  (* flow conservation: in-flow = n_v = out-flow *)
  let in_edges = Array.make n [] and out_edges = Array.make n [] in
  Array.iteri
    (fun e (u, v, _) ->
      out_edges.(u) <- e :: out_edges.(u);
      in_edges.(v) <- e :: in_edges.(v))
    edges;
  let entry = Vivu.entry vivu in
  for v = 0 to n - 1 do
    let r_in = row () in
    r_in.(var_node v) <- Q.one;
    List.iter (fun e -> r_in.(var_edge e) <- Q.sub r_in.(var_edge e) Q.one) in_edges.(v);
    if v = entry then r_in.(var_entry) <- Q.sub r_in.(var_entry) Q.one;
    constraints := (r_in, Simplex.Eq, Q.zero) :: !constraints;
    let r_out = row () in
    r_out.(var_node v) <- Q.one;
    List.iter (fun e -> r_out.(var_edge e) <- Q.sub r_out.(var_edge e) Q.one) out_edges.(v);
    List.iteri (fun i x -> if x = v then r_out.(var_exit i) <- Q.sub r_out.(var_exit i) Q.one) exits;
    constraints := (r_out, Simplex.Eq, Q.zero) :: !constraints
  done;
  (* unit entry flow *)
  let r = row () in
  r.(var_entry) <- Q.one;
  constraints := (r, Simplex.Eq, Q.one) :: !constraints;
  (* loop bounds at rest headers: n_h <= (B-1) * (dag in-flow of h) *)
  let forest = Vivu.forest vivu in
  for v = 0 to n - 1 do
    let nd = Vivu.node vivu v in
    match List.rev nd.Vivu.ctx with
    | (l, Vivu.Rest) :: _ when forest.Loops.loops.(l).Loops.header = nd.Vivu.block ->
      let bound = forest.Loops.loops.(l).Loops.bound in
      let r = row () in
      r.(var_node v) <- Q.one;
      List.iter
        (fun e ->
          let _, _, kind = edges.(e) in
          if kind = `Dag then
            r.(var_edge e) <- Q.sub r.(var_edge e) (Q.of_int (bound - 1)))
        in_edges.(v);
      constraints := (r, Simplex.Le, Q.zero) :: !constraints
    | _ -> ()
  done;
  let objective = Array.make num_vars Q.zero in
  for v = 0 to n - 1 do
    objective.(var_node v) <- Q.of_int wcet.Wcet.node_cycles.(v)
  done;
  ({ Simplex.num_vars; objective; constraints = List.rev !constraints }, n)

let solve ?deadline wcet =
  let problem, n = build wcet in
  optimum ~solver:"solve" ?deadline problem n

let agrees_with_longest_path wcet =
  let { tau; _ } = solve wcet in
  tau = wcet.Wcet.tau


(* ------------------------------------------------------------------ *)
(* Classical block-level IPET on the original cyclic CFG. *)

let solve_cfg ?deadline wcet =
  let analysis = wcet.Wcet.analysis in
  let vivu = Analysis.vivu analysis in
  let program = Vivu.program vivu in
  let forest = Vivu.forest vivu in
  let n = Ucp_isa.Program.block_count program in
  (* context-insensitive block time: worst over the block's instances *)
  let block_time = Array.make n 0 in
  for v = 0 to Vivu.node_count vivu - 1 do
    let b = (Vivu.node vivu v).Vivu.block in
    block_time.(b) <- max block_time.(b) wcet.Wcet.node_cycles.(v)
  done;
  let edges = ref [] in
  for u = 0 to n - 1 do
    List.iter (fun v -> edges := (u, v) :: !edges) (Ucp_isa.Program.successors program u)
  done;
  let edges = Array.of_list (List.rev !edges) in
  let n_edges = Array.length edges in
  let exits = Ucp_cfg.Cfgraph.exits program in
  let n_exits = List.length exits in
  let var_block b = b in
  let var_edge e = n + e in
  let var_entry = n + n_edges in
  let var_exit i = n + n_edges + 1 + i in
  let num_vars = n + n_edges + 1 + n_exits in
  let constraints = ref [] in
  let row () = Array.make num_vars Q.zero in
  let in_edges = Array.make n [] and out_edges = Array.make n [] in
  Array.iteri
    (fun e (u, v) ->
      out_edges.(u) <- e :: out_edges.(u);
      in_edges.(v) <- e :: in_edges.(v))
    edges;
  let entry = Ucp_isa.Program.entry program in
  for b = 0 to n - 1 do
    let r_in = row () in
    r_in.(var_block b) <- Q.one;
    List.iter (fun e -> r_in.(var_edge e) <- Q.sub r_in.(var_edge e) Q.one) in_edges.(b);
    if b = entry then r_in.(var_entry) <- Q.sub r_in.(var_entry) Q.one;
    constraints := (r_in, Simplex.Eq, Q.zero) :: !constraints;
    let r_out = row () in
    r_out.(var_block b) <- Q.one;
    List.iter (fun e -> r_out.(var_edge e) <- Q.sub r_out.(var_edge e) Q.one) out_edges.(b);
    List.iteri (fun i x -> if x = b then r_out.(var_exit i) <- Q.sub r_out.(var_exit i) Q.one) exits;
    constraints := (r_out, Simplex.Eq, Q.zero) :: !constraints
  done;
  let r = row () in
  r.(var_entry) <- Q.one;
  constraints := (r, Simplex.Eq, Q.one) :: !constraints;
  (* per loop: back-edge flow <= (bound - 1) * entry-edge flow *)
  Array.iter
    (fun (l : Loops.loop) ->
      let r = row () in
      Array.iteri
        (fun e (u, v) ->
          if List.exists (fun (a, b) -> a = u && b = v) l.Loops.back_edges then
            r.(var_edge e) <- Q.add r.(var_edge e) Q.one
          else if v = l.Loops.header && not l.Loops.body.(u) then
            r.(var_edge e) <- Q.sub r.(var_edge e) (Q.of_int (l.Loops.bound - 1)))
        edges;
      constraints := (r, Simplex.Le, Q.zero) :: !constraints)
    forest.Loops.loops;
  let objective = Array.make num_vars Q.zero in
  for b = 0 to n - 1 do
    objective.(var_block b) <- Q.of_int block_time.(b)
  done;
  let problem = { Simplex.num_vars; objective; constraints = List.rev !constraints } in
  optimum ~solver:"solve_cfg" ?deadline problem n
