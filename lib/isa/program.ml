type terminator =
  | Fallthrough of int
  | Jump of { uid : int; target : int }
  | Cond of {
      uid : int;
      taken : int;
      fallthrough : int;
      model : Branch_model.t;
    }
  | Return of { uid : int }

type block = {
  body : Instr.t array;
  term : terminator;
  loop_bound : int option;
}

type t = {
  name : string;
  entry : int;
  blocks : block array;
  next_uid : int;
}

type spec = {
  spec_body : int;
  spec_term : spec_term;
  spec_bound : int option;
}

and spec_term =
  | S_fallthrough of int
  | S_jump of int
  | S_cond of { taken : int; fallthrough : int; model : Branch_model.t }
  | S_return

let name t = t.name
let entry t = t.entry
let block_count t = Array.length t.blocks

let block t id =
  if id < 0 || id >= Array.length t.blocks then
    invalid_arg (Printf.sprintf "Program.block: id %d out of range" id);
  t.blocks.(id)

let successors t id =
  match (block t id).term with
  | Fallthrough target | Jump { target; _ } -> [ target ]
  | Cond { taken; fallthrough; _ } ->
    if taken = fallthrough then [ taken ] else [ taken; fallthrough ]
  | Return _ -> []

let term_slots = function
  | Fallthrough _ -> 0
  | Jump _ | Cond _ | Return _ -> 1

let slots t id =
  let b = block t id in
  Array.length b.body + term_slots b.term

let total_slots t =
  Array.fold_left (fun acc b -> acc + Array.length b.body + term_slots b.term) 0 t.blocks

let term_uid t id =
  match (block t id).term with
  | Fallthrough _ -> None
  | Jump { uid; _ } | Cond { uid; _ } | Return { uid } -> Some uid

let slot_instr t ~block:id ~pos =
  let b = block t id in
  let n = Array.length b.body in
  let no_slot () =
    invalid_arg (Printf.sprintf "Program.slot_instr: block %d has no slot %d" id pos)
  in
  if pos >= 0 && pos < n then b.body.(pos)
  else if pos = n then
    match b.term with
    | Jump { uid; _ } | Cond { uid; _ } | Return { uid } -> Instr.compute ~uid
    | Fallthrough _ -> no_slot ()
  else no_slot ()

let validate ~name ~entry blocks =
  let n = Array.length blocks in
  if entry < 0 || entry >= n then
    invalid_arg (Printf.sprintf "Program %s: entry %d out of range" name entry);
  Array.iteri
    (fun id b ->
      let check_target what target =
        if target < 0 || target >= n then
          invalid_arg
            (Printf.sprintf "Program %s: block %d %s target %d out of range" name id
               what target)
      in
      (match b.term with
      | Fallthrough target -> check_target "fallthrough" target
      | Jump { target; _ } -> check_target "jump" target
      | Cond { taken; fallthrough; _ } ->
        check_target "taken" taken;
        check_target "fallthrough" fallthrough
      | Return _ -> ());
      match b.loop_bound with
      | Some bound when bound < 1 ->
        invalid_arg
          (Printf.sprintf "Program %s: block %d has nonpositive loop bound" name id)
      | Some _ | None -> ())
    blocks

let make ~name ~entry specs =
  let next_uid = ref 0 in
  let fresh () =
    let uid = !next_uid in
    incr next_uid;
    uid
  in
  let build_block spec =
    if spec.spec_body < 0 then
      invalid_arg (Printf.sprintf "Program %s: negative body size" name);
    let body = Array.init spec.spec_body (fun _ -> Instr.compute ~uid:(fresh ())) in
    let term =
      match spec.spec_term with
      | S_fallthrough target -> Fallthrough target
      | S_jump target -> Jump { uid = fresh (); target }
      | S_cond { taken; fallthrough; model } ->
        Cond { uid = fresh (); taken; fallthrough; model }
      | S_return -> Return { uid = fresh () }
    in
    { body; term; loop_bound = spec.spec_bound }
  in
  let blocks = Array.map build_block specs in
  validate ~name ~entry blocks;
  { name; entry; blocks; next_uid = !next_uid }

let uid_bound t = t.next_uid

let iter_slots t f =
  Array.iteri
    (fun id b ->
      Array.iteri (fun pos instr -> f ~block:id ~pos ~instr) b.body;
      if term_slots b.term = 1 then
        f ~block:id ~pos:(Array.length b.body)
          ~instr:(slot_instr t ~block:id ~pos:(Array.length b.body)))
    t.blocks

let find_uid t uid =
  let found = ref None in
  iter_slots t (fun ~block ~pos ~instr ->
      if instr.Instr.uid = uid then found := Some (block, pos));
  !found

let insert_prefetches t batch =
  let blocks = Array.copy t.blocks in
  List.iteri
    (fun i (id, pos, target_uid) ->
      if id < 0 || id >= Array.length blocks then
        invalid_arg (Printf.sprintf "Program.insert_prefetch: block %d out of range" id);
      let b = blocks.(id) in
      let n = Array.length b.body in
      if pos < 0 || pos > n then
        invalid_arg (Printf.sprintf "Program.insert_prefetch: pos %d out of range" pos);
      let pf = Instr.prefetch ~uid:(t.next_uid + i) ~target:target_uid in
      let body =
        Array.init (n + 1) (fun k ->
            if k < pos then b.body.(k) else if k = pos then pf else b.body.(k - 1))
      in
      blocks.(id) <- { b with body })
    batch;
  (* every target names an instruction of [t]: one pass over its uids *)
  let present = Array.make t.next_uid false in
  iter_slots t (fun ~block:_ ~pos:_ ~instr -> present.(instr.Instr.uid) <- true);
  List.iter
    (fun (_, _, uid) ->
      if uid < 0 || uid >= t.next_uid || not present.(uid) then
        invalid_arg (Printf.sprintf "Program.insert_prefetch: unknown target uid %d" uid))
    batch;
  { t with blocks; next_uid = t.next_uid + List.length batch }

let insert_prefetch t ~block ~pos ~target_uid =
  (insert_prefetches t [ (block, pos, target_uid) ], t.next_uid)

let remove_uid t uid =
  match find_uid t uid with
  | None -> invalid_arg (Printf.sprintf "Program.remove_uid: unknown uid %d" uid)
  | Some (id, pos) ->
    let b = t.blocks.(id) in
    let n = Array.length b.body in
    if pos >= n then
      invalid_arg (Printf.sprintf "Program.remove_uid: uid %d is a terminator" uid);
    let body = Array.init (n - 1) (fun i -> if i < pos then b.body.(i) else b.body.(i + 1)) in
    let blocks = Array.copy t.blocks in
    blocks.(id) <- { b with body };
    { t with blocks }

let prefetch_count t =
  Array.fold_left
    (fun acc b ->
      acc + Array.fold_left (fun c i -> if Instr.is_prefetch i then c + 1 else c) 0 b.body)
    0 t.blocks

let strip_prefetches_body body =
  Array.of_list
    (List.filter (fun i -> not (Instr.is_prefetch i)) (Array.to_list body))

let same_term a b =
  match (a, b) with
  | Fallthrough x, Fallthrough y -> x = y
  | Jump { target = x; _ }, Jump { target = y; _ } -> x = y
  | ( Cond { taken = t1; fallthrough = f1; model = m1; _ },
      Cond { taken = t2; fallthrough = f2; model = m2; _ } ) ->
    t1 = t2 && f1 = f2 && m1 = m2
  | Return _, Return _ -> true
  | (Fallthrough _ | Jump _ | Cond _ | Return _), _ -> false

let same_control_flow a b =
  a.entry = b.entry
  && Array.length a.blocks = Array.length b.blocks
  && Array.for_all2
       (fun ba bb -> same_term ba.term bb.term && ba.loop_bound = bb.loop_bound)
       a.blocks b.blocks

let prefetch_equivalent a b =
  same_control_flow a b
  && Array.for_all2
       (fun ba bb ->
         Array.length (strip_prefetches_body ba.body)
         = Array.length (strip_prefetches_body bb.body))
       a.blocks b.blocks

let pp_term ppf = function
  | Fallthrough target -> Format.fprintf ppf "fall b%d" target
  | Jump { target; uid } -> Format.fprintf ppf "jump b%d (i%d)" target uid
  | Cond { taken; fallthrough; model; uid } ->
    Format.fprintf ppf "cond b%d/b%d [%a] (i%d)" taken fallthrough Branch_model.pp model
      uid
  | Return { uid } -> Format.fprintf ppf "return (i%d)" uid

let pp ppf t =
  Format.fprintf ppf "@[<v>program %s (entry b%d)@," t.name t.entry;
  Array.iteri
    (fun id b ->
      Format.fprintf ppf "b%d%s: " id
        (match b.loop_bound with
        | Some bound -> Printf.sprintf " (loop<=%d)" bound
        | None -> "");
      Array.iter (fun i -> Format.fprintf ppf "%a " Instr.pp i) b.body;
      Format.fprintf ppf "| %a@," pp_term b.term)
    t.blocks;
  Format.fprintf ppf "@]"
