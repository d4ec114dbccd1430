(* The on-disk reproducer corpus.

   One finding = one single-line JSON file carrying everything needed
   to replay it from scratch: the generator provenance (seed, size
   class), the use-case axes, the oracle and its normalized signature,
   the injected fault (if any) and the *shrunk* DSL term in the
   {!Dsl.to_string} s-expression format.  Files are written atomically
   (temp + rename) and named after the signature plus a content CRC, so
   depositing the same finding twice is idempotent and distinct
   programs tripping the same signature do not clobber each other. *)

module Dsl = Ucp_workloads.Dsl
module Json = Ucp_util.Json
module Crc32 = Ucp_util.Crc32
module Config = Ucp_cache.Config
module Tech = Ucp_energy.Tech
module Experiments = Ucp_core.Experiments
module Mode = Ucp_refine.Mode

type entry = {
  e_seed : int;
  e_cls : string;
  e_policy : Ucp_policy.id;
  e_config_id : string;
  e_tech : string;  (** technology label, e.g. ["45nm"] *)
  e_oracle : string;
  e_signature : string;
  e_detail : string;
  e_fault : Oracle.fault option;
  e_dsl : string;  (** shrunk program, {!Dsl.to_string} format *)
  e_shrink_steps : int;
}

let of_finding ~seed ~cls ~fault ~shrunk ~shrink_steps (t : Oracle.target)
    (f : Oracle.finding) =
  let body, procs = shrunk in
  {
    e_seed = seed;
    e_cls = cls;
    e_policy = t.Oracle.t_policy;
    e_config_id = t.Oracle.t_config_id;
    e_tech = t.Oracle.t_tech.Tech.label;
    e_oracle = f.Oracle.f_oracle;
    e_signature = f.Oracle.f_signature;
    e_detail = f.Oracle.f_detail;
    e_fault = fault;
    e_dsl = Dsl.to_string ~procs body;
    e_shrink_steps = shrink_steps;
  }

let to_json e =
  Json.Obj
    [
      ("seed", Json.Num (float_of_int e.e_seed));
      ("class", Json.Str e.e_cls);
      ("policy", Json.Str (Ucp_policy.to_string e.e_policy));
      ("config", Json.Str e.e_config_id);
      ("tech", Json.Str e.e_tech);
      ("oracle", Json.Str e.e_oracle);
      ("signature", Json.Str e.e_signature);
      ("detail", Json.Str e.e_detail);
      ( "fault",
        match e.e_fault with
        | None -> Json.Null
        | Some f -> Json.Str (Oracle.fault_to_string f) );
      ("dsl", Json.Str e.e_dsl);
      ("shrink_steps", Json.Num (float_of_int e.e_shrink_steps));
    ]

let to_line e = Json.to_string (to_json e)

let of_json j =
  let ( let* ) = Option.bind in
  let str k = Option.bind (Json.member k j) Json.to_str in
  let int k = Option.bind (Json.member k j) Json.to_int in
  let* e_seed = int "seed" in
  let* e_cls = str "class" in
  let* policy = str "policy" in
  let* e_policy = Result.to_option (Ucp_policy.of_string policy) in
  let* e_config_id = str "config" in
  let* e_tech = str "tech" in
  let* e_oracle = str "oracle" in
  let* e_signature = str "signature" in
  let* e_detail = str "detail" in
  let* e_fault =
    match Json.member "fault" j with
    | Some Json.Null | None -> Some None
    | Some (Json.Str s) -> Option.map Option.some (Oracle.fault_of_string s)
    | Some _ -> None
  in
  let* e_dsl = str "dsl" in
  let* e_shrink_steps = int "shrink_steps" in
  Some
    {
      e_seed;
      e_cls;
      e_policy;
      e_config_id;
      e_tech;
      e_oracle;
      e_signature;
      e_detail;
      e_fault;
      e_dsl;
      e_shrink_steps;
    }

let of_line line =
  match Json.parse line with
  | Error msg -> Error msg
  | Ok j -> (
    match of_json j with
    | Some e -> Ok e
    | None -> Error "corpus entry is missing or mistypes a field")

(* ------------------------------------------------------------------ *)
(* files *)

let slug s =
  let b = Bytes.of_string s in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' -> ()
      | _ -> Bytes.set b i '-')
    b;
  let s = Bytes.to_string b in
  if String.length s > 48 then String.sub s 0 48 else s

let filename e =
  let line = to_line e in
  Printf.sprintf "%s-%s.json" (slug e.e_signature) (Crc32.to_hex (Crc32.string line))

let save ~dir e =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (filename e) in
  Ucp_core.Checkpoint.write_atomic ~path (to_line e ^ "\n");
  path

let load path =
  let ic = open_in_bin path in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  of_line line

let list ~dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)

(* ------------------------------------------------------------------ *)
(* replay *)

let find_config id =
  List.assoc_opt id Experiments.default_configs

let find_tech label = List.find_opt (fun t -> t.Tech.label = label) Tech.all

(* rebuild the oracle target from the shrunk DSL stored in the entry *)
let target_of_entry e =
  match Dsl.parse e.e_dsl with
  | Error msg -> Error (Printf.sprintf "bad dsl: %s" msg)
  | Ok (body, procs) -> (
    match (find_config e.e_config_id, find_tech e.e_tech) with
    | None, _ -> Error (Printf.sprintf "unknown config %S" e.e_config_id)
    | _, None -> Error (Printf.sprintf "unknown tech %S" e.e_tech)
    | Some config, Some tech ->
      Ok
        {
          Oracle.t_name = Ucp_workloads.Generate.name ~seed:e.e_seed ~cls:e.e_cls;
          t_body = body;
          t_procs = procs;
          t_policy = e.e_policy;
          t_config_id = e.e_config_id;
          t_config = config;
          t_tech = tech;
        })

(* A replay succeeds when the stored oracle reproduces the stored
   signature: [Caught] for fault entries (the defence must still
   detect the injected lie), [Finding] for clean entries (the bug is
   still present — expected to *fail* on a fixed tree, which is what
   makes replay a regression pin both ways). *)
let replay ?deadline e =
  match target_of_entry e with
  | Error msg -> Error msg
  | Ok t -> (
    let verdict =
      match e.e_oracle with
      | "classification" -> Oracle.classification ?deadline t
      | "refine-full" -> fst (Oracle.refine_full ?deadline t)
      | _ -> Oracle.endtoend ?deadline ?fault:e.e_fault t
    in
    match (verdict, e.e_fault) with
    | Oracle.Caught f, Some _ when f.Oracle.f_signature = e.e_signature -> Ok ()
    | Oracle.Finding f, None when f.Oracle.f_signature = e.e_signature -> Ok ()
    | Oracle.Caught f, _ | Oracle.Finding f, _ ->
      Error
        (Printf.sprintf "signature mismatch: expected %s, got %s" e.e_signature
           f.Oracle.f_signature)
    | Oracle.Pass, Some _ ->
      Error "injected fault was not detected on replay"
    | Oracle.Pass, None -> Error "finding no longer reproduces")
