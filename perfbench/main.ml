(* perfbench: one workload, one seed, one run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   Prints a human-readable report, then, as its last line, the JSON
   result {"correct", "attempted", "failed", "metrics"}.  Writes the
   full result (machine fingerprint, digest, every metric) and, for a
   traced run, the spans under DIR (default perfbench/_out). *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]";
  Printf.eprintf "workloads: %s\n" (String.concat ", " (List.map (fun w -> w.Suite.name) Suite.all));
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let out = ref "perfbench/_out" in
  let int_arg v = match int_of_string_opt v with Some i -> i | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := Some (int_arg v); go rest
    | "--seconds" :: v :: rest -> seconds := Some (int_arg v); go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--out" :: v :: rest -> out := v; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when secs >= 1 -> (
      match Suite.find w with
      | Some w -> (w, s, secs, t, !out)
      | None -> Printf.eprintf "unknown workload %S\n" w; usage ())
  | _ -> usage ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let () =
  let w, seed, seconds, trace, out = parse Sys.argv in
  mkdir_p out;
  let machine = Machine.fingerprint () in
  Printf.printf "perfbench workload=%s seed=%d seconds=%d trace=%d\n" w.Suite.name seed seconds
    (Bool.to_int trace);
  Printf.printf "machine %s\n%!" (Tjson.to_string (Machine.to_json machine));
  let o =
    Bench.run w
      ~sizes:Suite.full
      ~seed ~seconds:(float_of_int seconds) ~trace ~dir:out ~machine
  in
  List.iter (fun e -> Printf.eprintf "FAILED %s\n" e) o.Bench.errors;
  let times = List.map (fun m -> Bench.seconds_of_ns m.Bench.ns) o.Bench.passes in
  Printf.printf "passes %d (%s; * traced), quartile spread %.3f, set-ups %d\n"
    (List.length o.Bench.passes)
    (String.concat " "
       (List.map2
          (fun m t -> Printf.sprintf "%.3fs%s" t (if m.Bench.traced then "*" else ""))
          o.Bench.passes times))
    (Quantile.spread times) (List.length o.Bench.setup_ns);
  let unscaled_pass = Quantile.median times
  and unscaled_setup = Quantile.median (List.map Bench.seconds_of_ns o.Bench.setup_ns) in
  Printf.printf "unscaled medians: pass %.6g s, set-up %.6g s (scaled to a %g ms kernel)\n"
    unscaled_pass unscaled_setup Bench.reference_kernel_ms;
  List.iter
    (fun m -> Printf.printf "  %-40s %16.6g %s\n" m.Schema.name m.Schema.value m.Schema.unit_)
    o.Bench.metrics;
  let ratio_failed = float_of_int o.Bench.failed /. float_of_int (Stdlib.max 1 o.Bench.attempted) in
  Printf.printf "  %-40s %16.6g ratio\n" "ops_failed_ratio" ratio_failed;
  (if w.Suite.name = "lp_rounding" && not trace then
     match List.find_opt (fun m -> m.Schema.name = "pass_s") o.Bench.metrics with
     | Some m -> Printf.printf "  %-40s %16.6g s\n" "lp_solve_s" m.Schema.value
     | None -> ());
  Printf.printf "digest %s seed=%d %s\n" w.Suite.name seed o.Bench.digest;
  let stem = Printf.sprintf "%s-seed%d-trace%d" w.Suite.name seed (Bool.to_int trace) in
  let result =
    Tjson.Obj
      [ ("workload", Tjson.String w.Suite.name); ("seed", Tjson.Int seed);
        ("seconds", Tjson.Int seconds); ("trace", Tjson.Bool trace);
        ("machine", Machine.to_json machine); ("digest", Tjson.String o.Bench.digest);
        ("passes", Tjson.Int (List.length o.Bench.passes));
        ("unscaled_pass_s", Tjson.Float unscaled_pass); ("unscaled_setup_s", Tjson.Float unscaled_setup);
        ("attempted", Tjson.Int o.Bench.attempted); ("failed", Tjson.Int o.Bench.failed);
        ("errors", Tjson.List (List.map (fun e -> Tjson.String e) o.Bench.errors));
        ("metrics",
         Tjson.Obj
           (List.map
              (fun m ->
                 ( m.Schema.name,
                   Tjson.Obj [ ("value", Tjson.Float m.Schema.value); ("unit", Tjson.String m.Schema.unit_) ] ))
              o.Bench.metrics)) ]
  in
  let oc = open_out (Filename.concat out ("result-" ^ stem ^ ".json")) in
  Tjson.to_channel oc result;
  output_char oc '\n';
  close_out oc;
  if trace then Span.write_jsonl o.Bench.tracer (Filename.concat out ("spans-" ^ stem ^ ".jsonl"));
  print_endline
    (Schema.result_line ~correct:o.Bench.correct ~attempted:o.Bench.attempted ~failed:o.Bench.failed
       o.Bench.metrics)
