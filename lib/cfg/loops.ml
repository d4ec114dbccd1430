module Program = Ucp_isa.Program

type loop = {
  index : int;
  header : int;
  body : bool array;
  back_edges : (int * int) list;
  parent : int option;
  depth : int;
  bound : int;
}

type forest = {
  loops : loop array;
  innermost : int option array;
}

let analyze p =
  let n = Program.block_count p in
  let rpo = Cfgraph.reverse_postorder p and preds = Cfgraph.predecessors p in
  let dom = Dominators.of_order ~rpo ~preds in
  let po_index = Cfgraph.postorder_index rpo in
  (* Classify edges; a retreating edge that is not a back edge makes the
     graph irreducible. *)
  let back_edges = Hashtbl.create 8 in
  for u = 0 to n - 1 do
    List.iter
      (fun v ->
        if po_index.(v) >= po_index.(u) then
          (* v appears before u in reverse postorder: retreating edge *)
          if Dominators.dominates dom v u then begin
            let prev = try Hashtbl.find back_edges v with Not_found -> [] in
            Hashtbl.replace back_edges v ((u, v) :: prev)
          end
          else
            invalid_arg
              (Printf.sprintf "Loops: irreducible CFG in %s (retreating edge %d->%d)"
                 (Program.name p) u v))
      (Program.successors p u)
  done;
  (* Natural loop of each header: backward closure from the latches. *)
  let headers = Hashtbl.fold (fun h _ acc -> h :: acc) back_edges [] |> List.sort compare in
  let mk_body header latches =
    let body = Array.make n false in
    body.(header) <- true;
    let rec visit b =
      if not body.(b) then begin
        body.(b) <- true;
        List.iter visit preds.(b)
      end
    in
    List.iter visit latches;
    body
  in
  let proto =
    List.map
      (fun h ->
        let edges = Hashtbl.find back_edges h in
        let latches = List.map fst edges in
        (h, mk_body h latches, edges))
      headers
  in
  (* Bounds: headers must carry one; other blocks must not.  [bounds]
     holds each header's (0 elsewhere). *)
  let bounds =
    Array.init n (fun b ->
        let is_header = Hashtbl.mem back_edges b in
        match ((Program.block p b).Program.loop_bound, is_header) with
        | None, true ->
          invalid_arg
            (Printf.sprintf "Loops: header %d of %s lacks a loop bound" b (Program.name p))
        | Some _, false ->
          invalid_arg
            (Printf.sprintf "Loops: non-header block %d of %s carries a loop bound" b
               (Program.name p))
        | Some bound, true -> bound
        | None, false -> 0)
  in
  let size body = Array.fold_left (fun acc x -> if x then acc + 1 else acc) 0 body in
  (* Parent = smallest strictly-enclosing loop. *)
  let arr = Array.of_list proto in
  let count = Array.length arr in
  let encloses i j =
    (* loop i encloses loop j (strictly)? *)
    let _, bi, _ = arr.(i) and hj, bj, _ = arr.(j) in
    i <> j && bi.(hj) && size bi > size bj
  in
  let parent_of j =
    let best = ref None in
    for i = 0 to count - 1 do
      if encloses i j then
        match !best with
        | None -> best := Some i
        | Some b ->
          let _, bb, _ = arr.(b) and _, bi, _ = arr.(i) in
          if size bi < size bb then best := Some i
    done;
    !best
  in
  let parents = Array.init count parent_of in
  let rec depth_of j = match parents.(j) with None -> 1 | Some i -> 1 + depth_of i in
  let loops =
    Array.init count (fun i ->
        let header, body, back_edges = arr.(i) in
        {
          index = i;
          header;
          body;
          back_edges;
          parent = parents.(i);
          depth = depth_of i;
          bound = bounds.(header);
        })
  in
  (* Sort outermost-first and remap indices. *)
  let order = Array.init count (fun i -> i) in
  Array.sort
    (fun a b ->
      match compare loops.(a).depth loops.(b).depth with
      | 0 -> compare loops.(a).header loops.(b).header
      | c -> c)
    order;
  let remap = Array.make count 0 in
  Array.iteri (fun pos old -> remap.(old) <- pos) order;
  let loops =
    Array.init count (fun pos ->
        let l = loops.(order.(pos)) in
        { l with index = pos; parent = Option.map (fun pi -> remap.(pi)) l.parent })
  in
  let innermost = Array.make n None in
  Array.iter
    (fun l ->
      Array.iteri
        (fun b inside ->
          if inside then
            match innermost.(b) with
            | None -> innermost.(b) <- Some l.index
            | Some other -> if loops.(other).depth < l.depth then innermost.(b) <- Some l.index)
        l.body)
    loops;
  { loops; innermost }

let loops_of_block f b =
  let rec chain idx acc =
    let l = f.loops.(idx) in
    match l.parent with None -> l :: acc | Some parent -> chain parent (l :: acc)
  in
  match f.innermost.(b) with None -> [] | Some idx -> chain idx []

let is_back_edge f u v =
  Array.exists (fun l -> List.exists (fun (a, b) -> a = u && b = v) l.back_edges) f.loops

let max_depth f = Array.fold_left (fun acc l -> max acc l.depth) 0 f.loops
