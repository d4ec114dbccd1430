module Program = Ucp_isa.Program
module Branch_model = Ucp_isa.Branch_model

type stmt =
  | Compute of int
  | If of Branch_model.t * stmt list * stmt list
  | Loop of { bound : int; trips : int; body : stmt list }
  | Call of string
  | Far of stmt list

let compute n = Compute n
let if_ ?(p = 0.5) then_ else_ = If (Branch_model.Bernoulli p, then_, else_)
let if_every k then_ else_ = If (Branch_model.Every k, then_, else_)

let loop ?bound trips body =
  let bound = match bound with Some b -> b | None -> trips in
  Loop { bound; trips; body }

let call name = Call name
let far_call name = Far [ Call name ]

(* The single validity check shared by the compiler, the random
   generator ({!Generate}) and the shrinker ({!Ucp_fuzz}): a validated
   program compiles without raising, and the CFG it compiles to is
   reducible with a bound on every natural loop header (structured
   control flow guarantees reducibility; the checks below guard the
   value-level invariants the structure cannot). *)
let validate ?(procs = []) stmts =
  let exception Invalid of string in
  let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt in
  let rec check stack stmts = List.iter (check_stmt stack) stmts
  and check_stmt stack = function
    | Compute n -> if n < 0 then fail "negative Compute"
    | If (_, then_, else_) ->
      check stack then_;
      check stack else_
    | Loop { bound; trips; body } ->
      if body = [] then fail "empty loop body";
      if trips < 1 then fail "loop needs >= 1 trip";
      if trips > bound then fail "loop trips exceed its bound";
      check stack body
    | Far body -> check stack body
    | Call name -> (
      if List.mem name stack then fail "recursive call of %s" name;
      match List.assoc_opt name procs with
      | Some body -> check (name :: stack) body
      | None -> fail "unknown procedure %s" name)
  in
  match check [] stmts with () -> Ok () | exception Invalid msg -> Error msg

(* ------------------------------------------------------------------ *)
(* serialization: a lossless single-line s-expression round-trip, so a
   fuzzing corpus can store a shrunk program as replayable text *)

let string_of_model = function
  | Branch_model.Always_taken -> "at"
  | Branch_model.Never_taken -> "nt"
  | Branch_model.Every k -> Printf.sprintf "(every %d)" k
  (* %h prints the exact bit pattern as a hex float, so Bernoulli
     probabilities survive the text round-trip bit for bit *)
  | Branch_model.Bernoulli p -> Printf.sprintf "(bern %h)" p

let rec add_stmt buf = function
  | Compute n -> Buffer.add_string buf (Printf.sprintf "(c %d)" n)
  | If (m, then_, else_) ->
    Buffer.add_string buf (Printf.sprintf "(if %s " (string_of_model m));
    add_stmts buf then_;
    Buffer.add_char buf ' ';
    add_stmts buf else_;
    Buffer.add_char buf ')'
  | Loop { bound; trips; body } ->
    Buffer.add_string buf (Printf.sprintf "(loop %d %d " bound trips);
    add_stmts buf body;
    Buffer.add_char buf ')'
  | Call name -> Buffer.add_string buf (Printf.sprintf "(call %s)" name)
  | Far body ->
    Buffer.add_string buf "(far ";
    add_stmts buf body;
    Buffer.add_char buf ')'

and add_stmts buf stmts =
  Buffer.add_char buf '(';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ' ';
      add_stmt buf s)
    stmts;
  Buffer.add_char buf ')'

let to_string ?(procs = []) stmts =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '(';
  List.iter
    (fun (name, body) ->
      Buffer.add_string buf (Printf.sprintf "(proc %s " name);
      add_stmts buf body;
      Buffer.add_string buf ") ")
    procs;
  Buffer.add_string buf "(body ";
  add_stmts buf stmts;
  Buffer.add_string buf "))";
  Buffer.contents buf

type sexp = Atom of string | Sexp_list of sexp list

exception Bad_dsl of string

let tokenize s =
  let toks = ref [] and i = ref 0 in
  let n = String.length s in
  while !i < n do
    match s.[!i] with
    | ' ' | '\t' | '\n' | '\r' -> incr i
    | '(' ->
      toks := "(" :: !toks;
      incr i
    | ')' ->
      toks := ")" :: !toks;
      incr i
    | _ ->
      let start = !i in
      while
        !i < n
        && match s.[!i] with ' ' | '\t' | '\n' | '\r' | '(' | ')' -> false | _ -> true
      do
        incr i
      done;
      toks := String.sub s start (!i - start) :: !toks
  done;
  List.rev !toks

let parse_sexp toks =
  let rest = ref toks in
  let rec value () =
    match !rest with
    | [] -> raise (Bad_dsl "unexpected end of input")
    | "(" :: tl ->
      rest := tl;
      let items = ref [] in
      let rec go () =
        match !rest with
        | ")" :: tl ->
          rest := tl;
          Sexp_list (List.rev !items)
        | [] -> raise (Bad_dsl "unclosed (")
        | _ ->
          items := value () :: !items;
          go ()
      in
      go ()
    | ")" :: _ -> raise (Bad_dsl "unexpected )")
    | atom :: tl ->
      rest := tl;
      Atom atom
  in
  let v = value () in
  if !rest <> [] then raise (Bad_dsl "trailing garbage");
  v

let int_atom what = function
  | Atom a -> (
    match int_of_string_opt a with
    | Some i -> i
    | None -> raise (Bad_dsl (what ^ ": not an integer")))
  | Sexp_list _ -> raise (Bad_dsl (what ^ ": expected an integer"))

let model_of_sexp = function
  | Atom "at" -> Branch_model.Always_taken
  | Atom "nt" -> Branch_model.Never_taken
  | Sexp_list [ Atom "every"; k ] -> Branch_model.Every (int_atom "every" k)
  | Sexp_list [ Atom "bern"; Atom p ] -> (
    match float_of_string_opt p with
    | Some p -> Branch_model.Bernoulli p
    | None -> raise (Bad_dsl "bern: not a float"))
  | _ -> raise (Bad_dsl "malformed branch model")

let rec stmt_of_sexp = function
  | Sexp_list [ Atom "c"; n ] -> Compute (int_atom "c" n)
  | Sexp_list [ Atom "if"; m; then_; else_ ] ->
    If (model_of_sexp m, stmts_of_sexp then_, stmts_of_sexp else_)
  | Sexp_list [ Atom "loop"; bound; trips; body ] ->
    Loop
      {
        bound = int_atom "loop bound" bound;
        trips = int_atom "loop trips" trips;
        body = stmts_of_sexp body;
      }
  | Sexp_list [ Atom "call"; Atom name ] -> Call name
  | Sexp_list [ Atom "far"; body ] -> Far (stmts_of_sexp body)
  | _ -> raise (Bad_dsl "malformed statement")

and stmts_of_sexp = function
  | Sexp_list items -> List.map stmt_of_sexp items
  | Atom _ -> raise (Bad_dsl "expected a statement list")

let parse s =
  match
    let procs = ref [] and body = ref None in
    (match parse_sexp (tokenize s) with
    | Sexp_list items ->
      List.iter
        (function
          | Sexp_list [ Atom "proc"; Atom name; b ] ->
            procs := (name, stmts_of_sexp b) :: !procs
          | Sexp_list [ Atom "body"; b ] -> body := Some (stmts_of_sexp b)
          | _ -> raise (Bad_dsl "expected (proc ...) or (body ...)"))
        items
    | Atom _ -> raise (Bad_dsl "expected a program"));
    match !body with
    | None -> raise (Bad_dsl "missing (body ...)")
    | Some b -> (b, List.rev !procs)
  with
  | r -> Ok r
  | exception Bad_dsl msg -> Error msg

(* Block under construction; terminators are patched in as the
   structure unfolds. *)
type bterm =
  | T_fall of int
  | T_jump of int
  | T_cond of { taken : int; fallthrough : int; model : Branch_model.t }
  | T_return

type bblock = {
  mutable body : int;
  mutable term : bterm option;
  mutable bound : int option;
  far : bool;  (* lay this block out after the main region *)
}

type builder = {
  blocks : (int, bblock) Hashtbl.t;
  mutable count : int;
  mutable cur : int;
  mutable far_depth : int;
  procs : (string * stmt list) list;
  name : string;
}

let new_block b =
  let id = b.count in
  b.count <- b.count + 1;
  Hashtbl.replace b.blocks id
    { body = 0; term = None; bound = None; far = b.far_depth > 0 };
  id

let block b id = Hashtbl.find b.blocks id

let emit b n =
  let blk = block b b.cur in
  blk.body <- blk.body + n

let finish b term =
  let blk = block b b.cur in
  assert (blk.term = None);
  blk.term <- Some term

let rec compile_stmts b stack stmts = List.iter (compile_stmt b stack) stmts

and compile_stmt b stack = function
  | Compute n -> emit b n
  | If (model, then_, else_) ->
    let then_b = new_block b in
    let else_b = new_block b in
    finish b (T_cond { taken = then_b; fallthrough = else_b; model });
    b.cur <- then_b;
    compile_stmts b stack then_;
    let then_end = b.cur in
    b.cur <- else_b;
    compile_stmts b stack else_;
    let else_end = b.cur in
    let join_b = new_block b in
    b.cur <- then_end;
    finish b (T_jump join_b);
    b.cur <- else_end;
    finish b (T_fall join_b);
    b.cur <- join_b
  | Loop { bound; trips; body } ->
    let head = new_block b in
    finish b (T_fall head);
    (block b head).bound <- Some bound;
    b.cur <- head;
    compile_stmts b stack body;
    let after = new_block b in
    finish b
      (T_cond { taken = head; fallthrough = after; model = Branch_model.trips trips });
    b.cur <- after
  | Far body ->
    let far_entry =
      (b.far_depth <- b.far_depth + 1;
       let id = new_block b in
       b.far_depth <- b.far_depth - 1;
       id)
    in
    finish b (T_jump far_entry);
    b.cur <- far_entry;
    b.far_depth <- b.far_depth + 1;
    compile_stmts b stack body;
    b.far_depth <- b.far_depth - 1;
    let back = new_block b in
    finish b (T_jump back);
    b.cur <- back
  | Call name ->
    (* validated upfront: the procedure exists and is non-recursive *)
    compile_stmts b (name :: stack) (List.assoc name b.procs)

let compile ?(procs = []) ~name stmts =
  (match validate ~procs stmts with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "Dsl(%s): %s" name msg));
  let b =
    { blocks = Hashtbl.create 32; count = 0; cur = 0; far_depth = 0; procs; name }
  in
  let entry = new_block b in
  b.cur <- entry;
  compile_stmts b [] stmts;
  finish b T_return;
  (* Block ids determine the address layout, so place far-marked blocks
     after the whole main region: stable permutation + target remap. *)
  let order =
    let near = ref [] and far = ref [] in
    for id = b.count - 1 downto 0 do
      if (block b id).far then far := id :: !far else near := id :: !near
    done;
    Array.of_list (!near @ !far)
  in
  let remap = Array.make b.count 0 in
  Array.iteri (fun new_id old_id -> remap.(old_id) <- new_id) order;
  let specs =
    Array.map
      (fun old_id ->
        let blk = block b old_id in
        let spec_term =
          match blk.term with
          | None ->
            invalid_arg
              (Printf.sprintf "Dsl(%s): block %d has no terminator" name old_id)
          | Some (T_fall target) -> Program.S_fallthrough remap.(target)
          | Some (T_jump target) -> Program.S_jump remap.(target)
          | Some (T_cond { taken; fallthrough; model }) ->
            Program.S_cond
              { taken = remap.(taken); fallthrough = remap.(fallthrough); model }
          | Some T_return -> Program.S_return
        in
        { Program.spec_body = blk.body; spec_term; spec_bound = blk.bound })
      order
  in
  Program.make ~name ~entry:remap.(entry) specs
