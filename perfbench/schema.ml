(* Metric names, units and the one-line JSON result.

   The last line a run prints is one JSON object with exactly the keys
   [correct], [attempted], [failed] and [metrics]; [metrics] maps each
   metric name to [{"value": v, "unit": u}].  Values are printed with
   17 significant digits, so no measured digit is lost. *)

type metric = { name : string; value : float; unit_ : string }

let is_name_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let is_alnum = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false

(* A name is 1 to 64 characters of [A-Za-z0-9_.-] starting with a
   letter or a digit. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0] && String.for_all is_name_char s

(* A unit is 1 to 16 characters of [A-Za-z0-9_/%.-]. *)
let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16 && String.for_all (fun c -> is_name_char c || c = '/' || c = '%') s

let number v =
  if not (Float.is_finite v) then invalid_arg "Schema.number: non-finite value";
  Printf.sprintf "%.17g" v

let metric_json m =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value) m.unit_

let result_line ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
       if not (valid_name m.name && valid_unit m.unit_) then
         invalid_arg (Printf.sprintf "Schema.result_line: bad metric %S [%s]" m.name m.unit_))
    metrics;
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric_json metrics))
