(* Prometheus text exposition over the metrics registry.

   Instrument names in the registry may carry a literal label set —
   e.g. [serve_latency_s{tier="cache"}] — which this module splits into
   a base name and labels so that one [# TYPE] line covers the whole
   family and histogram suffixes ([_bucket]/[_sum]/[_count]) compose
   with the labels.  [render] is pure: it formats whatever dump it is
   given, so the golden test pins the byte-exact output of a synthetic
   registry. *)

(* shortest stable decimal form; integers without an exponent so
   bucket bounds like 0.005 and counts read naturally *)
let fmt_float x =
  if Float.is_nan x then "NaN"
  else if x = Float.infinity then "+Inf"
  else if x = Float.neg_infinity then "-Inf"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.12g" x

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun ch ->
      match ch with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | ch -> Buffer.add_char buf ch)
    v;
  Buffer.contents buf

let split_name name =
  match String.index_opt name '{' with
  | None -> (name, None)
  | Some i ->
    if String.length name = 0 || name.[String.length name - 1] <> '}' then
      (name, None)
    else
      (String.sub name 0 i, Some (String.sub name (i + 1) (String.length name - i - 2)))

let labels_text labels =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v)) labels)

let sample_name base labels =
  match labels with
  | [] -> base
  | labels -> Printf.sprintf "%s{%s}" base (labels_text labels)

(* raw label text from a registry name is emitted verbatim (it is
   already in exposition syntax); extra labels are appended *)
let raw_name base raw extra =
  match (raw, extra) with
  | None, [] -> base
  | None, extra -> sample_name base extra
  | Some raw, [] -> Printf.sprintf "%s{%s}" base raw
  | Some raw, extra -> Printf.sprintf "%s{%s,%s}" base raw (labels_text extra)

let type_of_value = function
  | Metrics.Counter _ | Metrics.Fcounter _ -> "counter"
  | Metrics.Gauge _ -> "gauge"
  | Metrics.Histogram _ -> "histogram"

let render dump =
  let buf = Buffer.create 4096 in
  let typed = Hashtbl.create 16 in
  List.iter
    (fun (name, value) ->
      let base, raw = split_name name in
      (* one TYPE line per family; the dump is name-sorted, so the
         labeled variants of one base arrive adjacent *)
      if not (Hashtbl.mem typed base) then begin
        Hashtbl.add typed base ();
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" base (type_of_value value))
      end;
      match value with
      | Metrics.Counter n ->
        Buffer.add_string buf
          (Printf.sprintf "%s %d\n" (raw_name base raw []) n)
      | Metrics.Fcounter x | Metrics.Gauge x ->
        Buffer.add_string buf
          (Printf.sprintf "%s %s\n" (raw_name base raw []) (fmt_float x))
      | Metrics.Histogram { bounds; counts; sum; count } ->
        let cum = ref 0 in
        Array.iteri
          (fun i bound ->
            cum := !cum + counts.(i);
            Buffer.add_string buf
              (Printf.sprintf "%s %d\n"
                 (raw_name (base ^ "_bucket") raw [ ("le", fmt_float bound) ])
                 !cum))
          bounds;
        let n = Array.length counts in
        cum := !cum + counts.(n - 1);
        Buffer.add_string buf
          (Printf.sprintf "%s %d\n"
             (raw_name (base ^ "_bucket") raw [ ("le", "+Inf") ])
             !cum);
        Buffer.add_string buf
          (Printf.sprintf "%s %s\n" (raw_name (base ^ "_sum") raw []) (fmt_float sum));
        Buffer.add_string buf
          (Printf.sprintf "%s %d\n" (raw_name (base ^ "_count") raw []) count))
    dump;
  Buffer.contents buf
