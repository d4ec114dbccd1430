module Q = Rational

type outcome =
  | Optimal of { value : Q.t; assignment : int array }
  | Infeasible
  | Unbounded

exception Node_budget_exhausted of int

let () =
  Printexc.register_printer (function
    | Node_budget_exhausted n ->
      Some (Printf.sprintf "Ilp.Node_budget_exhausted: %d branch-and-bound nodes" n)
    | _ -> None)

let fractional_var assignment =
  let n = Array.length assignment in
  let rec find j =
    if j >= n then None
    else if not (Q.is_integer assignment.(j)) then Some j
    else find (j + 1)
  in
  find 0

let bound_row num_vars j q op =
  let coeffs = Array.make num_vars Q.zero in
  coeffs.(j) <- Q.one;
  (coeffs, op, q)

let maximize ?deadline ?(max_nodes = 100_000) (problem : Simplex.problem) =
  Ucp_obs.Trace.with_span ~name:"ilp" (fun () ->
  let nodes = ref 0 in
  let incumbent = ref None in
  let better value =
    match !incumbent with
    | None -> true
    | Some (best, _) -> Q.compare value best > 0
  in
  let rec explore extra =
    incr nodes;
    if !nodes > max_nodes then raise (Node_budget_exhausted !nodes);
    Ucp_util.Deadline.check deadline;
    let p = { problem with Simplex.constraints = problem.Simplex.constraints @ extra } in
    match Simplex.maximize ?deadline p with
    | Simplex.Infeasible -> `Done
    | Simplex.Unbounded -> `Unbounded
    | Simplex.Optimal { value; assignment; _ } ->
      if not (better value) then `Done
      else begin
        match fractional_var assignment with
        | None ->
          let ints = Array.map Q.to_int_exn assignment in
          incumbent := Some (value, ints);
          `Done
        | Some j ->
          let v = assignment.(j) in
          let le = bound_row problem.Simplex.num_vars j (Q.of_int (Q.floor v)) Simplex.Le in
          let ge = bound_row problem.Simplex.num_vars j (Q.of_int (Q.ceil v)) Simplex.Ge in
          (match explore (le :: extra) with
          | `Unbounded -> `Unbounded
          | `Done -> explore (ge :: extra))
      end
  in
  (* As in Simplex.maximize: record the node count even when the node
     budget or a deadline aborts the search. *)
  Fun.protect
    ~finally:(fun () ->
      Ucp_obs.Trace.set_arg "nodes" (Ucp_obs.Trace.Int !nodes);
      Ucp_obs.Metrics.add (Ucp_obs.Metrics.counter "ilp_nodes_total") !nodes)
    (fun () ->
      match explore [] with
      | `Unbounded -> Unbounded
      | `Done -> (
        match !incumbent with
        | Some (value, assignment) -> Optimal { value; assignment }
        | None -> Infeasible)))
