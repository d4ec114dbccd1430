type t = { idom : int array; pre : int array; last : int array }

(* Cooper, Harvey, Kennedy: "A Simple, Fast Dominance Algorithm". *)
let of_order ~rpo ~preds =
  let n = Array.length rpo in
  let entry = rpo.(0) in
  let po_index = Cfgraph.postorder_index rpo in
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
  (* Preorder numbers of the dominator tree (recursing, as
     {!Cfgraph.reverse_postorder} does): b dominates pre.(b)..last.(b). *)
  let children = Array.make n [] in
  for b = n - 1 downto 0 do
    if b <> entry then children.(idom.(b)) <- b :: children.(idom.(b))
  done;
  let pre = Array.make n 0 and last = Array.make n 0 in
  let count = ref 0 in
  let rec number b =
    pre.(b) <- !count;
    incr count;
    List.iter number children.(b);
    last.(b) <- !count - 1
  in
  number entry;
  { idom; pre; last }

let compute p = of_order ~rpo:(Cfgraph.reverse_postorder p) ~preds:(Cfgraph.predecessors p)

let idom t b = t.idom.(b)
let dominates t a b = t.pre.(a) <= t.pre.(b) && t.pre.(b) <= t.last.(a)
