module Program = Ucp_isa.Program

let predecessors p =
  let n = Program.block_count p in
  let preds = Array.make n [] in
  for id = 0 to n - 1 do
    List.iter (fun s -> preds.(s) <- id :: preds.(s)) (Program.successors p id)
  done;
  Array.map List.rev preds

let reverse_postorder p =
  let visited = Array.make (Program.block_count p) false in
  let order = ref [] in
  (* [visit] recurses, one frame per block on the search path: OCaml 5
     grows its stacks on demand (to 1 GiB by default), so long block
     chains need no explicit stack. *)
  let rec visit id =
    if not visited.(id) then begin
      visited.(id) <- true;
      List.iter visit (Program.successors p id);
      order := id :: !order
    end
  in
  visit (Program.entry p);
  Array.iteri
    (fun id ok ->
      if not ok then
        invalid_arg
          (Printf.sprintf "Cfgraph: block %d of %s is unreachable" id (Program.name p)))
    visited;
  (* [order] is built head-first, so it already holds reverse postorder. *)
  Array.of_list !order

let postorder_index rpo =
  let n = Array.length rpo in
  let idx = Array.make n 0 in
  Array.iteri (fun i id -> idx.(id) <- n - 1 - i) rpo;
  idx

let check_all_reachable p = ignore (reverse_postorder p)

let exits p =
  let n = Program.block_count p in
  let acc = ref [] in
  for id = n - 1 downto 0 do
    match (Program.block p id).Program.term with
    | Program.Return _ -> acc := id :: !acc
    | Program.Fallthrough _ | Program.Jump _ | Program.Cond _ -> ()
  done;
  !acc
