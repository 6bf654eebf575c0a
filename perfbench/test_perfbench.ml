(* Tests of the benchmark's own code: order statistics, span self-time
   arithmetic, metric names, the result schema, the metric lists of
   BENCHMARK.json, and a small run of every workload. *)

open Perfbench

let feq = Alcotest.float 1e-12

(* Expected values from Python's statistics.quantiles(data, n=4) and
   statistics.median. *)
let test_quantiles () =
  let cases =
    [ ([ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ], [ 2.75; 5.5; 8.25 ], 5.5);
      ([ 3.; 1.; 2. ], [ 1.; 2.; 3. ], 2.);
      ([ 5.; 1. ], [ 0.; 3.; 6. ], 3.);
      ([ 2.5; 0.5; 9.; 4.; 7.5 ], [ 1.5; 4.; 8.25 ], 4.);
      ([ 7. ], [ 7.; 7.; 7. ], 7.) ]
  in
  List.iter
    (fun (xs, qs, m) ->
       Alcotest.(check (list feq)) "quartiles" qs (Quantile.quantiles ~n:4 xs);
       Alcotest.check feq "median" m (Quantile.median xs))
    cases;
  Alcotest.check feq "spread" ((8.25 -. 2.75) /. 5.5)
    (Quantile.spread [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ]);
  Alcotest.check feq "spread of equal samples" 0. (Quantile.spread [ 4.; 4.; 4. ]);
  Alcotest.(check (list feq)) "deciles" [ 1.1; 2.2; 3.3; 4.4; 5.5; 6.6; 7.7; 8.8; 9.9 ]
    (Quantile.quantiles ~n:10 (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check_raises "median of nothing" (Invalid_argument "Quantile.median: no samples")
    (fun () -> ignore (Quantile.median []))

let test_self_time () =
  let self = Span.self_ns ~start:0 ~stop:100 in
  Alcotest.(check int) "no children" 100 (self []);
  Alcotest.(check int) "disjoint" 70 (self [ (10, 20); (50, 70) ]);
  Alcotest.(check int) "overlapping children counted once" 60 (self [ (10, 40); (30, 50) ]);
  Alcotest.(check int) "nested children counted once" 80 (self [ (10, 30); (15, 20) ]);
  Alcotest.(check int) "clipped to the parent" 80 (self [ (-10, 10); (90, 120) ]);
  Alcotest.(check int) "touching" 70 (self [ (0, 10); (10, 30) ]);
  Alcotest.(check int) "fully covered" 0 (self [ (0, 100) ])

let test_span_tree () =
  let tr = Span.create ~on:true in
  Span.set_pass tr 1;
  Span.with_span tr "outer" (fun () ->
      Span.with_span tr "inner" (fun () -> ignore (Sys.opaque_identity (Array.make 100 0)));
      Span.record_aggregate tr "pulls" ~ns:0 ~words:5.);
  let all = Span.with_self_times tr in
  let find name = List.find (fun x -> x.Span.span.Span.name = name) all in
  let outer = find "outer" and inner = find "inner" and pulls = find "pulls" in
  Alcotest.(check int) "inner's parent" outer.Span.span.Span.id inner.Span.span.Span.parent;
  Alcotest.(check int) "aggregate's parent" outer.Span.span.Span.id pulls.Span.span.Span.parent;
  Alcotest.(check int) "outer self = outer - inner"
    (outer.Span.span.Span.stop_ns - outer.Span.span.Span.start_ns
     - (inner.Span.span.Span.stop_ns - inner.Span.span.Span.start_ns))
    outer.Span.self_ns;
  Alcotest.(check bool) "inner allocated" true (inner.Span.span.Span.words >= 101.);
  Alcotest.check feq "outer self words exclude children"
    (outer.Span.span.Span.words -. inner.Span.span.Span.words -. 5.)
    outer.Span.self_words;
  Alcotest.(check int) "per-pass totals" inner.Span.self_ns (fst (Span.pass_totals tr 1 "inner"));
  Alcotest.(check int) "absent name" 0 (fst (Span.pass_totals tr 1 "nope"));
  let off = Span.create ~on:false in
  Alcotest.(check int) "disabled tracer runs the call" 3 (Span.with_span off "x" (fun () -> 3));
  Alcotest.(check int) "and records nothing" 0 (List.length (Span.spans off))

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Schema.valid_name n))
    [ "setup_s"; "next_ref.build_ns_per_req"; "a"; "9-x"; String.make 64 'x' ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S rejected" n) false (Schema.valid_name n))
    [ ""; "_x"; ".x"; "a b"; "a/b"; "caf\xc3\xa9"; String.make 65 'x' ];
  List.iter
    (fun u -> Alcotest.(check bool) u true (Schema.valid_unit u))
    [ "s"; "1/s"; "ns/req"; "%"; "units/request" ];
  Alcotest.(check bool) "long unit" false (Schema.valid_unit (String.make 17 's'));
  List.iter
    (fun (n, u) ->
       Alcotest.(check bool) n true (Schema.valid_name n && Schema.valid_unit u))
    (Bench.end_to_end @ Bench.per_layer);
  let names = List.map fst (Bench.end_to_end @ Bench.per_layer) in
  Alcotest.(check int) "names used once" (List.length names)
    (List.length (List.sort_uniq compare names))

let member k j = match Tjson.member k j with Some v -> v | None -> Alcotest.failf "no key %s" k

let test_schema () =
  let line =
    Schema.result_line ~correct:true ~attempted:3 ~failed:0
      [ { Schema.name = "latency_ms"; value = 1.2034; unit_ = "ms" };
        { Schema.name = "setup_s"; value = 0.1 +. 0.2; unit_ = "s" } ]
  in
  match Tjson.of_string line with
  | Error e -> Alcotest.failf "result line does not parse: %s" e
  | Ok (Tjson.Obj fields as j) ->
    Alcotest.(check (list string)) "keys" [ "correct"; "attempted"; "failed"; "metrics" ]
      (List.map fst fields);
    Alcotest.(check bool) "attempted" true (member "attempted" j = Tjson.Int 3);
    let setup = member "setup_s" (member "metrics" j) in
    Alcotest.(check bool) "unit" true (member "unit" setup = Tjson.String "s");
    (match member "value" setup with
     | Tjson.Float v -> Alcotest.check feq "all digits kept" (0.1 +. 0.2) v
     | _ -> Alcotest.fail "value is not a float");
    Alcotest.check_raises "bad name refused"
      (Invalid_argument "Schema.result_line: bad metric \"bad name\" [s]") (fun () ->
          ignore
            (Schema.result_line ~correct:true ~attempted:1 ~failed:0
               [ { Schema.name = "bad name"; value = 1.; unit_ = "s" } ]))
  | Ok _ -> Alcotest.fail "result line is not an object"

(* BENCHMARK.json names exactly the workloads and metrics the code
   reports, with the same units. *)
let test_benchmark_json () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let j = match Tjson.of_string text with Ok j -> j | Error e -> Alcotest.failf "BENCHMARK.json: %s" e in
  let list k = match member k j with Tjson.List l -> l | _ -> Alcotest.failf "%s is not a list" k in
  let str k o = match member k o with Tjson.String s -> s | _ -> Alcotest.failf "%s is not a string" k in
  Alcotest.(check (list string)) "workloads"
    (List.map (fun w -> w.Suite.name) Suite.all)
    (List.map (str "name") (list "workloads"));
  let pairs k = List.map (fun o -> (str "name" o, str "unit" o)) (list k) in
  Alcotest.(check (list (pair string string))) "end_to_end" Bench.end_to_end (pairs "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Bench.per_layer (pairs "per_layer")

let machine = { Machine.ocaml = "test"; cpu = "test"; nproc = 1; calibration_ms = 1. }

let smoke (w : Suite.workload) () =
  let dir = "smoke_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let run trace = Bench.run w ~sizes:Suite.smoke ~seed:3 ~seconds:0.01 ~trace ~dir ~machine in
  let plain = run false and traced = run true in
  List.iter
    (fun (o, expected) ->
       if not o.Bench.correct then Alcotest.failf "failures: %s" (String.concat "; " o.Bench.errors);
       Alcotest.(check (list string)) "every metric, in order" (List.map fst expected)
         (List.map (fun m -> m.Schema.name) o.Bench.metrics);
       List.iter
         (fun m ->
            if not (Float.is_finite m.Schema.value) then Alcotest.failf "%s not finite" m.Schema.name)
         o.Bench.metrics)
    [ (plain, Bench.end_to_end); (traced, Bench.per_layer) ];
  Alcotest.(check string) "same simulated results traced or not" plain.Bench.digest traced.Bench.digest;
  let value name = (List.find (fun m -> m.Schema.name = name) plain.Bench.metrics).Schema.value in
  Alcotest.check feq "no failed operation" 1. (value "ops_ok_ratio");
  Alcotest.(check bool) "positive throughput" true (value "requests_per_s" > 0.);
  Alcotest.(check bool) "a traced pass was made" true
    (List.exists (fun m -> m.Bench.traced) traced.Bench.passes)

let () =
  Alcotest.run "perfbench"
    [ ( "measurement",
        [ Alcotest.test_case "quantiles match Python" `Quick test_quantiles;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "span tree" `Quick test_span_tree ] );
      ( "schema",
        [ Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "result line" `Quick test_schema;
          Alcotest.test_case "BENCHMARK.json matches the code" `Quick test_benchmark_json ] );
      ( "smoke",
        List.map (fun w -> Alcotest.test_case w.Suite.name `Quick (smoke w)) Suite.all ) ]
