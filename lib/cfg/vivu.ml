module Program = Ucp_isa.Program

type mark = First | Rest

type node = { block : int; ctx : (int * mark) list }

type t = {
  program : Program.t;
  forest : Loops.forest;
  nodes : node array;
  dag_succ : int list array;
  dag_pred : int list array;
  iter_succ : int list array;
  iter_pred : int list array;
  mult : int array;
  entry : int;
  exit_nodes : int list;
  topo : int array;
  index : (int * (int * mark) list, int) Hashtbl.t;
  by_block : int list array;
}

let loop_chain forest b =
  List.map (fun (l : Loops.loop) -> l.Loops.index) (Loops.loops_of_block forest b)

(* Context transition along a CFG edge u -> v given u's context. *)
let transition forest ~ctx_u ~u ~v =
  let is_back = Loops.is_back_edge forest u v in
  if is_back then begin
    (* v is the header of some loop L in u's chain; truncate the context
       at L and flip its mark to Rest.  The edge is a DAG edge when the
       old mark was First, an iteration edge when it was Rest. *)
    let rec cut = function
      | [] ->
        invalid_arg
          (Printf.sprintf "Vivu: back edge %d->%d escapes context" u v)
      | (l, mark) :: tl ->
        if forest.Loops.loops.(l).Loops.header = v then ([ (l, Rest) ], mark)
        else
          let rest, old_mark = cut tl in
          ((l, mark) :: rest, old_mark)
    in
    let ctx_v, old_mark = cut ctx_u in
    (ctx_v, old_mark = Rest)
  end
  else begin
    (* Keep marks of loops still containing v; push First for a loop v
       now heads. *)
    let chain_v = loop_chain forest v in
    let kept = List.filter (fun (l, _) -> List.mem l chain_v) ctx_u in
    let kept_ids = List.map fst kept in
    let entered = List.filter (fun l -> not (List.mem l kept_ids)) chain_v in
    let ctx_v = kept @ List.map (fun l -> (l, First)) entered in
    (ctx_v, false)
  end

let expand program =
  let forest = Loops.analyze program in
  let index = Hashtbl.create 64 in
  let node_of_id = Hashtbl.create 64 in
  let n_nodes = ref 0 in
  let intern block ctx =
    match Hashtbl.find_opt index (block, ctx) with
    | Some id -> (id, false)
    | None ->
      let id = !n_nodes in
      incr n_nodes;
      Hashtbl.add index (block, ctx) id;
      Hashtbl.add node_of_id id { block; ctx };
      (id, true)
  in
  let dag_edges = ref [] and iter_edges = ref [] in
  let entry_block = Program.entry program in
  let entry_ctx = List.map (fun l -> (l, First)) (loop_chain forest entry_block) in
  let entry_id, _ = intern entry_block entry_ctx in
  let worklist = Queue.create () in
  Queue.add entry_id worklist;
  let seen_expanded = Hashtbl.create 64 in
  while not (Queue.is_empty worklist) do
    let u_id = Queue.take worklist in
    if not (Hashtbl.mem seen_expanded u_id) then begin
      Hashtbl.add seen_expanded u_id ();
      let { block = u; ctx = ctx_u } = Hashtbl.find node_of_id u_id in
      List.iter
        (fun v ->
          let ctx_v, is_iter = transition forest ~ctx_u ~u ~v in
          let v_id, fresh = intern v ctx_v in
          if is_iter then iter_edges := (u_id, v_id) :: !iter_edges
          else dag_edges := (u_id, v_id) :: !dag_edges;
          if fresh then Queue.add v_id worklist)
        (Program.successors program u)
    end
  done;
  let count = !n_nodes in
  let nodes = Array.init count (fun id -> Hashtbl.find node_of_id id) in
  let dag_succ = Array.make count [] in
  let dag_pred = Array.make count [] in
  let iter_succ = Array.make count [] in
  let iter_pred = Array.make count [] in
  List.iter
    (fun (a, b) ->
      dag_succ.(a) <- b :: dag_succ.(a);
      dag_pred.(b) <- a :: dag_pred.(b))
    !dag_edges;
  List.iter
    (fun (a, b) ->
      iter_succ.(a) <- b :: iter_succ.(a);
      iter_pred.(b) <- a :: iter_pred.(b))
    !iter_edges;
  let mult =
    Array.map
      (fun nd ->
        List.fold_left
          (fun acc (l, mark) ->
            match mark with
            | First -> acc
            | Rest -> acc * max 0 (forest.Loops.loops.(l).Loops.bound - 1))
          1 nd.ctx)
      nodes
  in
  (* Kahn topological sort over DAG edges. *)
  let indeg = Array.make count 0 in
  Array.iteri (fun _ succs -> List.iter (fun v -> indeg.(v) <- indeg.(v) + 1) succs) dag_succ;
  let q = Queue.create () in
  Array.iteri (fun id d -> if d = 0 then Queue.add id q) indeg;
  let topo = Array.make count (-1) in
  let filled = ref 0 in
  while not (Queue.is_empty q) do
    let id = Queue.take q in
    topo.(!filled) <- id;
    incr filled;
    List.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v q)
      dag_succ.(id)
  done;
  if !filled <> count then
    invalid_arg
      (Printf.sprintf "Vivu: expansion of %s is not acyclic (%d/%d sorted)"
         (Program.name program) !filled count);
  let exit_nodes =
    let acc = ref [] in
    Array.iteri
      (fun id nd ->
        match (Program.block program nd.block).Program.term with
        | Program.Return _ -> acc := id :: !acc
        | Program.Fallthrough _ | Program.Jump _ | Program.Cond _ -> ())
      nodes;
    List.rev !acc
  in
  let by_block = Array.make (Program.block_count program) [] in
  Array.iteri (fun id nd -> by_block.(nd.block) <- id :: by_block.(nd.block)) nodes;
  Array.iteri (fun b lst -> by_block.(b) <- List.rev lst) by_block;
  {
    program;
    forest;
    nodes;
    dag_succ;
    dag_pred;
    iter_succ;
    iter_pred;
    mult;
    entry = entry_id;
    exit_nodes;
    topo;
    index;
    by_block;
  }

(* [expand] and [Loops.analyze] read a program's block count, entry,
   terminators and loop bounds, nothing else. *)
let rebind t program =
  if not (Program.same_control_flow t.program program) then
    invalid_arg
      (Printf.sprintf "Vivu.rebind: %s does not have the control flow of %s"
         (Program.name program) (Program.name t.program));
  { t with program }

let program t = t.program
let forest t = t.forest
let node_count t = Array.length t.nodes
let node t id = t.nodes.(id)
let entry t = t.entry
let exit_nodes t = t.exit_nodes
let dag_succ t id = t.dag_succ.(id)
let dag_pred t id = t.dag_pred.(id)
let iter_succ t id = t.iter_succ.(id)
let iter_pred t id = t.iter_pred.(id)
let all_pred t id = t.dag_pred.(id) @ t.iter_pred.(id)
let mult t id = t.mult.(id)
let topo t = t.topo
let find t ~block ~ctx = Hashtbl.find_opt t.index (block, ctx)
let instances_of_block t b = t.by_block.(b)

let pp_node t ppf id =
  let nd = t.nodes.(id) in
  let pp_mark ppf = function First -> Format.pp_print_char ppf 'F' | Rest -> Format.pp_print_char ppf 'R' in
  Format.fprintf ppf "b%d<%a>" nd.block
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       (fun ppf (l, m) -> Format.fprintf ppf "L%d:%a" l pp_mark m))
    nd.ctx
