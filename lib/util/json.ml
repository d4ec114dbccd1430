type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of { pos : int; msg : string }

let () =
  Printexc.register_printer (function
    | Parse_error { pos; msg } ->
      Some (Printf.sprintf "Json.Parse_error at byte %d: %s" pos msg)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* parsing: a strict recursive-descent reader over the whole string —
   no trailing garbage, no unquoted keys, no comments, no bare NaN *)

type cursor = { src : string; mutable pos : int }

let error c fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error { pos = c.pos; msg })) fmt

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let at c ch = c.pos < String.length c.src && c.src.[c.pos] = ch

(* skip a run of decimal digits; false when there is none *)
let digits c =
  let first = c.pos in
  while c.pos < String.length c.src && c.src.[c.pos] >= '0' && c.src.[c.pos] <= '9' do
    advance c
  done;
  c.pos > first

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> error c "expected %C, found %C" ch x
  | None -> error c "expected %C, found end of input" ch

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let parse_literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else error c "invalid literal (expected %s)" word

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let plain ch = ch <> '"' && ch <> '\\' && Char.code ch >= 0x20 in
  let rec go () =
    (* copy each run of bytes that need no decoding in one piece *)
    let run = c.pos in
    while c.pos < String.length c.src && plain c.src.[c.pos] do
      advance c
    done;
    Buffer.add_substring buf c.src run (c.pos - run);
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | None -> error c "unterminated escape"
      | Some ch ->
        advance c;
        (match ch with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if c.pos + 4 > String.length c.src then error c "truncated \\u escape";
          let hex = String.sub c.src c.pos 4 in
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some v -> v
            | None -> error c "bad \\u escape %S" hex
          in
          c.pos <- c.pos + 4;
          (* encode the code point as UTF-8; surrogates are kept as-is
             bytes of their code unit, which round-trips our own writer *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
        | ch -> error c "invalid escape \\%C" ch);
        go ())
    | Some _ -> error c "raw control byte in string"
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let negative = at c '-' in
  if negative then advance c;
  let int_start = c.pos in
  if not (digits c) then error c "malformed number";
  let int_end = c.pos in
  if at c '.' then begin
    advance c;
    if not (digits c) then error c "malformed number (no digit after '.')"
  end;
  if at c 'e' || at c 'E' then begin
    advance c;
    if at c '+' || at c '-' then advance c;
    if not (digits c) then error c "malformed number (empty exponent)"
  end;
  if c.pos = int_end && int_end - int_start <= 15 then begin
    (* fast path for integer tokens (no fraction, no exponent): fifteen
       digits stay below 2^53, so the sum is exact and equals what
       [float_of_string] would return (negated after the sum, so "-0"
       still reads as -0.0) *)
    let v = ref 0 in
    for i = int_start to int_end - 1 do
      v := (!v * 10) + (Char.code c.src.[i] - Char.code '0')
    done;
    Num (if negative then -.float_of_int !v else float_of_int !v)
  end
  else
    let text = String.sub c.src start (c.pos - start) in
    match float_of_string_opt text with
    | Some v -> Num v
    | None -> error c "malformed number %S" text

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          members ((key, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((key, v) :: acc)
        | _ -> error c "expected ',' or '}' in object"
      in
      Obj (members [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elements (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> error c "expected ',' or ']' in array"
      in
      Arr (elements [])
    end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> error c "unexpected character %C" ch

let parse src =
  let c = { src; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length src then
      Error (Printf.sprintf "byte %d: trailing garbage after JSON value" c.pos)
    else Ok v
  | exception Parse_error { pos; msg } -> Error (Printf.sprintf "byte %d: %s" pos msg)

let parse_exn src =
  match parse src with
  | Ok v -> v
  | Error msg -> raise (Parse_error { pos = 0; msg })

(* ------------------------------------------------------------------ *)
(* printing *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | ch when Char.code ch < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.add_char buf '"'

let number_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v -> Buffer.add_string buf (number_to_string v)
  | Str s -> escape_string buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      items;
    Buffer.add_char buf ']'
  | Obj members ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        write buf v)
      members;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* accessors *)

let member key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

let to_float = function Num v -> Some v | _ -> None
(* below 2^53 a float holds every integer exactly; from 2^53 on, a
   decimal token may have been rounded onto the value it reads as *)
let to_int = function
  | Num v when Float.is_integer v && Float.abs v < 0x1p53 -> Some (int_of_float v)
  | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr items -> Some items | _ -> None
