module Program = Ucp_isa.Program

type t = { entry : int; idom : int array; po_index : int array }

(* Cooper, Harvey, Kennedy: "A Simple, Fast Dominance Algorithm". *)
let compute p =
  Cfgraph.check_all_reachable p;
  let n = Program.block_count p in
  let entry = Program.entry p in
  let rpo = Cfgraph.reverse_postorder p in
  let po_index = Cfgraph.postorder_index p in
  let preds = Cfgraph.predecessors p in
  let idom = Array.make n (-1) in
  idom.(entry) <- entry;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while po_index.(!a) < po_index.(!b) do
        a := idom.(!a)
      done;
      while po_index.(!b) < po_index.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> entry then begin
          let new_idom =
            List.fold_left
              (fun acc pred ->
                if idom.(pred) = -1 then acc
                else
                  match acc with None -> Some pred | Some a -> Some (intersect pred a))
              None preds.(b)
          in
          match new_idom with
          | None -> ()
          | Some d ->
            if idom.(b) <> d then begin
              idom.(b) <- d;
              changed := true
            end
        end)
      rpo
  done;
  { entry; idom; po_index }

let idom t b = t.idom.(b)

let dominates t a b =
  let rec walk x =
    if x = a then true else if x = t.entry then a = t.entry else walk t.idom.(x)
  in
  walk b
