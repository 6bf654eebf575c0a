(* Tests for the delayed-hit executor (lib/disksim/delayed.ml) and its
   stochastic fetch-latency plans.

   The anchor property is the degenerate-plan contract: with window 0
   and degenerate timing (Faults.none, or a jitter-free Const F plan)
   the executor must produce stats structurally identical to
   Simulate.run on every schedule the classic executor accepts - the
   queueing machinery must cost the deterministic path nothing, not
   even a different event stream.  On top of that: hand-computed
   parking traces, the queueing invariants under random plans, the
   latency-distribution bounds, and the split-stream RNG hardening
   (adding a latency distribution never perturbs the jitter or failure
   draws). *)

let fetch = Fetch_op.make

let ok = function
  | Ok v -> v
  | Error (e : Simulate.error) ->
    Alcotest.failf "schedule rejected at t=%d: %s" e.Simulate.at_time e.Simulate.reason

(* ------------------------------------------------------------------ *)
(* Hand-computed parking traces.

   seq = [b0; b0], k = 1, F = 3, cold cache, one fetch of b0 at cursor
   0.  Classic: three stall units while the fetch lands, then two
   serves (stall 3, elapsed 5).  Window 1: r1 parks on the in-flight
   fetch (one delayed hit, residual 3), r2 stalls behind the full
   window (elapsed 4 = (2 - 1) + 3).  Window 2: both requests park and
   the run ends at the completion instant itself (elapsed 3 =
   (2 - 2) + 3), exercising the loop-exit guard that prevents a
   spurious trailing stall unit. *)

let tiny_inst = Instance.single_disk ~k:1 ~fetch_time:3 ~initial_cache:[] [| 0; 0 |]
let tiny_sched = [ fetch ~at_cursor:0 ~block:0 ~evict:None () ]

let check_tiny ~window ~stall ~elapsed ~hits ~wait ~depth =
  let d = ok (Delayed.run ~window tiny_inst tiny_sched) in
  Alcotest.(check int) "stall" stall d.Delayed.base.Simulate.stall_time;
  Alcotest.(check int) "elapsed" elapsed d.Delayed.base.Simulate.elapsed_time;
  Alcotest.(check int) "hits" hits d.Delayed.delayed_hits;
  Alcotest.(check int) "wait" wait d.Delayed.delayed_wait;
  Alcotest.(check int) "depth" depth d.Delayed.max_queue_depth;
  Alcotest.(check int) "waits length" hits (List.length d.Delayed.waits)

let test_window0_is_classic () =
  check_tiny ~window:0 ~stall:3 ~elapsed:5 ~hits:0 ~wait:0 ~depth:0;
  let s = ok (Simulate.run tiny_inst tiny_sched) in
  let d = ok (Delayed.run ~window:0 tiny_inst tiny_sched) in
  Alcotest.(check bool) "base stats structurally identical" true (d.Delayed.base = s)

let test_window1_parks_one () = check_tiny ~window:1 ~stall:3 ~elapsed:4 ~hits:1 ~wait:3 ~depth:1

let test_window2_parks_both () =
  check_tiny ~window:2 ~stall:3 ~elapsed:3 ~hits:2 ~wait:6 ~depth:2;
  (* The wait log records both requests parking at t=0, ready at t=3. *)
  let d = ok (Delayed.run ~window:2 tiny_inst tiny_sched) in
  List.iter
    (fun (w : Delayed.wait) ->
       Alcotest.(check int) "parked at 0" 0 w.Delayed.parked_at;
       Alcotest.(check int) "ready at 3" 3 w.Delayed.ready_at;
       Alcotest.(check int) "block 0" 0 w.Delayed.block)
    d.Delayed.waits

let test_elapsed_identity () =
  (* elapsed = (n - hits) + stall on a larger instance. *)
  let seq = Workload.zipf ~seed:5 ~alpha:0.9 ~n:40 ~num_blocks:10 in
  let inst = Workload.single_instance ~k:5 ~fetch_time:4 seq in
  let sched = Aggressive.schedule inst in
  List.iter
    (fun window ->
       let d = ok (Delayed.run ~window inst sched) in
       Alcotest.(check int)
         (Printf.sprintf "elapsed identity at window %d" window)
         (Instance.length inst - d.Delayed.delayed_hits + d.Delayed.base.Simulate.stall_time)
         d.Delayed.base.Simulate.elapsed_time)
    [ 0; 1; 4; 16 ]

let test_rejects_negative_window () =
  Alcotest.check_raises "window -1" (Invalid_argument "Delayed.run: window must be >= 0")
    (fun () -> ignore (Delayed.run ~window:(-1) tiny_inst tiny_sched))

let test_rejects_failure_plans () =
  let faults = Faults.make ~seed:3 ~fail_prob:0.5 () in
  (try
     ignore (Delayed.run ~faults tiny_inst tiny_sched);
     Alcotest.fail "failure plan accepted"
   with Faults.Invalid_plan _ -> ());
  let faults =
    Faults.make ~seed:3 ~outages:[ { Faults.disk = 0; from_time = 0; until_time = 2 } ] ()
  in
  try
    ignore (Delayed.run ~faults tiny_inst tiny_sched);
    Alcotest.fail "outage plan accepted"
  with Faults.Invalid_plan _ -> ()

(* ------------------------------------------------------------------ *)
(* Degenerate-plan oracle across the fuzz corpus: the same check the
   [delayed] fuzz class runs, pinned here over a fixed slice of the
   deterministic case generator so plain [dune runtest] covers it. *)

let test_degenerate_over_corpus () =
  for index = 0 to 79 do
    let case = Ck_gen.generate ~seed:7 ~index in
    match Ck_delayed.degenerate.Ck_oracle.check case.Ck_gen.inst with
    | Ck_oracle.Fail { msg; _ } ->
      Alcotest.failf "degenerate oracle failed on case %d (%s): %s" index case.Ck_gen.descr msg
    | Ck_oracle.Pass | Ck_oracle.Skip _ -> ()
  done

(* The PR-8 fast paths (heap-MIN Conservative, class-split Online)
   produce their schedules through new machinery; pin that the delayed
   executor's degenerate contract holds on exactly those plans too:
   window 0 with Faults.none AND with a jitter-free Const F plan must be
   structurally identical to Simulate.run, and the fast-engine plan must
   equal the reference-engine plan before either enters the executor. *)
let test_degenerate_on_fast_paths () =
  let fetch_time = 4 in
  let seq = Workload.zipf ~seed:21 ~alpha:0.9 ~n:300 ~num_blocks:24 in
  let inst = Workload.single_instance ~k:8 ~fetch_time seq in
  let const_f = Faults.make ~seed:1 ~latency:(Faults.Const fetch_time) () in
  List.iter
    (fun (name, schedule) ->
       let sched = schedule inst in
       let ref_sched = Driver.with_engine Driver.Reference (fun () -> schedule inst) in
       Alcotest.(check bool)
         (Printf.sprintf "%s: fast plan = reference plan" name)
         true (sched = ref_sched);
       (* Events + attribution on both sides: Delayed.run with a faults
          plan records them unconditionally, so the bare executor must
          too for the structural comparison to be meaningful. *)
       let s = ok (Simulate.run ~record_events:true ~attribution:true inst sched) in
       let d = ok (Delayed.run ~record_events:true ~attribution:true ~window:0 inst sched) in
       Alcotest.(check bool)
         (Printf.sprintf "%s: window-0 base = classic" name)
         true (d.Delayed.base = s);
       Alcotest.(check int) (Printf.sprintf "%s: no delayed hits" name) 0 d.Delayed.delayed_hits;
       let dc =
         ok (Delayed.run ~record_events:true ~attribution:true ~window:0 ~faults:const_f
               inst sched)
       in
       Alcotest.(check bool)
         (Printf.sprintf "%s: const-F plan = classic" name)
         true (dc.Delayed.base = s))
    [ ("conservative", Conservative.schedule);
      ("online(32)", Online.schedule (Online.aggressive ~lookahead:32));
      ("online(8,d2)", Online.schedule Online.{ lookahead = 8; delay = 2 });
      ("delay(d0)", Delay.schedule ~d:(Bounds.delay_opt_d ~f:fetch_time)) ]

let test_queueing_over_corpus () =
  for index = 0 to 39 do
    let case = Ck_gen.generate ~seed:11 ~index in
    match Ck_delayed.queueing.Ck_oracle.check case.Ck_gen.inst with
    | Ck_oracle.Fail { msg; _ } ->
      Alcotest.failf "queueing oracle failed on case %d (%s): %s" index case.Ck_gen.descr msg
    | Ck_oracle.Pass | Ck_oracle.Skip _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Latency distributions: draws respect the advertised supports. *)

let draw_durations faults ~fetch_time ~count =
  List.init count (fun i ->
      (Faults.draw faults ~fetch_time ~disk:(i mod 3) ~block:(i mod 7) ~attempt:1 ~start:i)
        .Faults.duration)

let test_latency_supports () =
  let within name lo hi ds =
    List.iter
      (fun d ->
         if d < lo || d > hi then
           Alcotest.failf "%s drew %d outside [%d, %d]" name d lo hi)
      ds
  in
  within "const" 6 6
    (draw_durations (Faults.make ~seed:1 ~latency:(Faults.Const 6) ()) ~fetch_time:4 ~count:64);
  let uni = draw_durations
      (Faults.make ~seed:2 ~latency:(Faults.Uniform { lo = 2; hi = 9 }) ())
      ~fetch_time:4 ~count:256
  in
  within "uniform" 2 9 uni;
  Alcotest.(check bool) "uniform spreads" true
    (List.exists (fun d -> d <> List.hd uni) uni);
  let par = draw_durations
      (Faults.make ~seed:3 ~latency:(Faults.Pareto { xm = 2; alpha = 1.3; cap = 32 }) ())
      ~fetch_time:4 ~count:256
  in
  within "pareto" 2 32 par;
  Alcotest.(check bool) "pareto spreads" true
    (List.exists (fun d -> d <> List.hd par) par);
  (* Planned keeps the instance's fetch time. *)
  within "planned" 4 4 (draw_durations (Faults.make ~seed:4 ()) ~fetch_time:4 ~count:16)

let test_latency_bounds_helpers () =
  let f = 4 in
  Alcotest.(check int) "max planned" f
    (Faults.max_latency (Faults.make ~seed:1 ()) ~fetch_time:f);
  Alcotest.(check int) "max uniform" 9
    (Faults.max_latency
       (Faults.make ~seed:1 ~latency:(Faults.Uniform { lo = 2; hi = 9 }) ())
       ~fetch_time:f);
  Alcotest.(check int) "max pareto = cap" 32
    (Faults.max_latency
       (Faults.make ~seed:1 ~latency:(Faults.Pareto { xm = 2; alpha = 1.3; cap = 32 }) ())
       ~fetch_time:f);
  (* Base distribution only: every executor adds [max_jitter] on top
     when sizing its horizon, so the two bounds stay composable. *)
  Alcotest.(check int) "max excludes jitter" 9
    (Faults.max_latency
       (Faults.make ~seed:1 ~jitter_prob:0.5 ~max_jitter:3
          ~latency:(Faults.Uniform { lo = 2; hi = 9 }) ())
       ~fetch_time:f);
  Alcotest.(check (float 1e-9)) "mean const" 6.0
    (Faults.mean_latency (Faults.make ~seed:1 ~latency:(Faults.Const 6) ()) ~fetch_time:f);
  Alcotest.(check (float 1e-9)) "mean uniform" 5.5
    (Faults.mean_latency
       (Faults.make ~seed:1 ~latency:(Faults.Uniform { lo = 2; hi = 9 }) ())
       ~fetch_time:f)

let test_invalid_latency_plans () =
  let rejects name f =
    try
      ignore (f ());
      Alcotest.failf "%s accepted" name
    with Faults.Invalid_plan _ -> ()
  in
  rejects "const 0" (fun () -> Faults.make ~seed:1 ~latency:(Faults.Const 0) ());
  rejects "uniform lo > hi" (fun () ->
      Faults.make ~seed:1 ~latency:(Faults.Uniform { lo = 5; hi = 4 }) ());
  rejects "uniform lo 0" (fun () ->
      Faults.make ~seed:1 ~latency:(Faults.Uniform { lo = 0; hi = 4 }) ());
  rejects "pareto alpha 0" (fun () ->
      Faults.make ~seed:1 ~latency:(Faults.Pareto { xm = 2; alpha = 0.0; cap = 8 }) ());
  rejects "pareto cap < xm" (fun () ->
      Faults.make ~seed:1 ~latency:(Faults.Pareto { xm = 8; alpha = 1.3; cap = 4 }) ())

(* ------------------------------------------------------------------ *)
(* Split-stream RNG hardening: each fault concern draws from its own
   hash-derived stream, so adding a latency distribution to a plan must
   not perturb the jitter or failure draws of unrelated concerns. *)

let test_latency_stream_independent_of_jitter () =
  (* Const F with F = fetch_time changes only the (degenerate) base; if
     the jitter stream were shared with the latency stream the extras
     would shift.  Durations must match Planned pointwise. *)
  let mk latency = Faults.make ~seed:42 ~jitter_prob:0.7 ~max_jitter:5 ?latency () in
  let planned = draw_durations (mk None) ~fetch_time:4 ~count:256 in
  let const = draw_durations (mk (Some (Faults.Const 4))) ~fetch_time:4 ~count:256 in
  Alcotest.(check (list int)) "jitter stream unperturbed" planned const

let test_failure_stream_independent_of_latency () =
  let flags faults =
    List.init 256 (fun i ->
        (Faults.draw faults ~fetch_time:4 ~disk:(i mod 3) ~block:(i mod 7) ~attempt:1 ~start:i)
          .Faults.failed)
  in
  let planned = flags (Faults.make ~seed:9 ~fail_prob:0.4 ()) in
  let uniform =
    flags (Faults.make ~seed:9 ~fail_prob:0.4 ~latency:(Faults.Uniform { lo = 2; hi = 9 }) ())
  in
  Alcotest.(check (list bool)) "failure stream unperturbed" planned uniform

let test_pinned_draws () =
  (* Regression pin: these exact values must never change - a different
     stream split or mixing constant is an observable break in every
     seeded experiment and fuzz artifact. *)
  let d faults = (draw_durations faults ~fetch_time:4 ~count:8 : int list) in
  Alcotest.(check (list int)) "planned + jitter"
    [ 9; 5; 7; 6; 5; 9; 4; 7 ]
    (d (Faults.make ~seed:42 ~jitter_prob:0.5 ~max_jitter:5 ()));
  Alcotest.(check (list int)) "uniform [2,9]"
    [ 6; 4; 7; 6; 3; 7; 6; 7 ]
    (d (Faults.make ~seed:42 ~latency:(Faults.Uniform { lo = 2; hi = 9 }) ()));
  Alcotest.(check (list int)) "pareto xm=2 a=1.3 cap=32"
    [ 3; 2; 4; 3; 2; 4; 3; 4 ]
    (d (Faults.make ~seed:42 ~latency:(Faults.Pareto { xm = 2; alpha = 1.3; cap = 32 }) ()))

(* ------------------------------------------------------------------ *)
(* Telemetry surface: the delayed-hit event serializes with the full
   queueing context. *)

let test_delayed_hit_event_json () =
  let j =
    Event_log.json_of_event
      (Event_log.Delayed_hit
         { time = 7; cursor = 3; block = 5; disk = 1; queue_depth = 2; residual = 4 })
  in
  let field k = Tjson.member k j in
  Alcotest.(check bool) "event tag" true (field "event" = Some (Tjson.String "delayed_hit"));
  List.iter
    (fun (k, v) ->
       Alcotest.(check bool) (Printf.sprintf "field %s" k) true (field k = Some (Tjson.Int v)))
    [ ("time", 7); ("cursor", 3); ("block", 5); ("disk", 1); ("queue_depth", 2);
      ("residual", 4) ];
  (* And the whole line round-trips through the strict parser. *)
  match Tjson.of_string (Tjson.to_string j) with
  | Ok j' -> Alcotest.(check bool) "roundtrip" true (j = j')
  | Error e -> Alcotest.failf "emitted JSON does not parse: %s" e

(* ------------------------------------------------------------------ *)
(* Same-instant unblock in the global defer FIFO.

   Two disks, k = 2, blocks X = b0 and W = b2 on disk 0, Y = b1 on disk
   1, initial cache {X, W}, seq = [Y; X].  Both fetches are anchored at
   cursor 0: A (disk 0) fetches X evicting W, B (disk 1) fetches Y
   evicting X.  A Const 3 plan at window 0 runs the defer-global mode.
   At t = 0 the pass tries A first and defers it (X is still resident),
   then starts B, which evicts X: from t = 1 on, A can start.  The
   processor stalls on Y meanwhile, and the clock must step to t = 1
   rather than jump to B's completion at t = 3 (which would start A at
   3, land X at 6 and stall two more units). *)
let test_same_instant_unblock () =
  let inst =
    Instance.parallel ~k:2 ~fetch_time:3 ~num_disks:2 ~disk_of:[| 0; 1; 0 |]
      ~initial_cache:[ 0; 2 ] [| 1; 0 |]
  in
  let a = fetch ~at_cursor:0 ~disk:0 ~block:0 ~evict:(Some 2) () in
  let b = fetch ~at_cursor:0 ~disk:1 ~block:1 ~evict:(Some 0) () in
  let faults = Faults.make ~latency:(Faults.Const 3) () in
  let d = ok (Delayed.run ~record_events:true ~window:0 ~faults inst [ a; b ]) in
  let starts =
    List.filter_map
      (function
        | Simulate.Fetch_start { time; fetch } -> Some (fetch.Fetch_op.block, time)
        | _ -> None)
      d.Delayed.base.Simulate.events
  in
  Alcotest.(check (list (pair int int))) "B at t=0, A at t+1" [ (1, 0); (0, 1) ] starts;
  Alcotest.(check int) "A was deferred" 1 d.Delayed.report.Faults.deferred_starts;
  Alcotest.(check int) "stall" 3 d.Delayed.base.Simulate.stall_time;
  Alcotest.(check int) "elapsed" 5 d.Delayed.base.Simulate.elapsed_time

(* ------------------------------------------------------------------ *)
(* Randomized sweep: queueing invariants under arbitrary latency plans
   and windows.  No starvation (every request served exactly once), the
   elapsed identity, the attribution partition, and the wait-log
   bijection. *)

let prop_delayed_invariants =
  QCheck2.Test.make ~count:120 ~name:"delayed executor invariants under random plans"
    ~print:(fun (seed, window, dist, conservative) ->
      Printf.sprintf "seed=%d window=%d dist=%d conservative=%b" seed window dist conservative)
    QCheck2.Gen.(tup4 (int_range 0 5000) (int_range 0 12) (int_range 0 2) bool)
    (fun (seed, window, dist, conservative) ->
       let latency =
         match dist with
         | 0 -> Faults.Const 4
         | 1 -> Faults.Uniform { lo = 2; hi = 8 }
         | _ -> Faults.Pareto { xm = 2; alpha = 1.3; cap = 16 }
       in
       let faults = Faults.make ~seed ~latency () in
       let seq = Workload.zipf ~seed:(seed + 1) ~alpha:0.9 ~n:40 ~num_blocks:10 in
       let inst = Workload.single_instance ~k:5 ~fetch_time:4 seq in
       let sched =
         if conservative then Conservative.schedule inst else Aggressive.schedule inst
       in
       let n = Instance.length inst in
       match Delayed.run ~record_events:true ~attribution:true ~window ~faults inst sched with
       | Error _ -> false  (* latency-only plans must never wedge a valid schedule *)
       | Ok d ->
         let s = d.Delayed.base in
         (* Every request served exactly once - no starvation, no double
            service. *)
         let served = Array.make n 0 in
         List.iter
           (function
             | Simulate.Serve { index; _ } -> served.(index) <- served.(index) + 1
             | _ -> ())
           s.Simulate.events;
         assert (Array.for_all (fun c -> c = 1) served);
         assert (s.Simulate.elapsed_time = n - d.Delayed.delayed_hits + s.Simulate.stall_time);
         let charged =
           List.fold_left
             (fun acc (fs : Simulate.fetch_stall) ->
                acc + fs.Simulate.involuntary_stall + fs.Simulate.voluntary_stall)
             0 s.Simulate.stall_by_fetch
         in
         assert (charged = s.Simulate.stall_time);
         (* Wait log in bijection with the hits, each within bounds. *)
         assert (List.length d.Delayed.waits = d.Delayed.delayed_hits);
         let max_residual = Faults.max_latency faults ~fetch_time:4 in
         List.iter
           (fun (w : Delayed.wait) ->
              assert (w.Delayed.ready_at - w.Delayed.parked_at >= 1);
              assert (w.Delayed.ready_at - w.Delayed.parked_at <= max_residual);
              assert (w.Delayed.queue_depth >= 1);
              assert (window = 0 || w.Delayed.queue_depth <= window))
           d.Delayed.waits;
         assert (
           List.fold_left (fun acc (w : Delayed.wait) -> acc + w.Delayed.ready_at - w.Delayed.parked_at)
             0 d.Delayed.waits
           = d.Delayed.delayed_wait);
         d.Delayed.delayed_hits = 0 || window > 0)

let () =
  Alcotest.run "delayed"
    [ ("parking",
       [ Alcotest.test_case "window 0 = classic" `Quick test_window0_is_classic;
         Alcotest.test_case "window 1 parks one" `Quick test_window1_parks_one;
         Alcotest.test_case "window 2 parks both (loop-exit guard)" `Quick
           test_window2_parks_both;
         Alcotest.test_case "elapsed identity" `Quick test_elapsed_identity;
         Alcotest.test_case "rejects negative window" `Quick test_rejects_negative_window;
         Alcotest.test_case "rejects failure plans" `Quick test_rejects_failure_plans;
         Alcotest.test_case "same-instant unblock steps one unit" `Quick
           test_same_instant_unblock ]);
      ("oracles",
       [ Alcotest.test_case "degenerate over corpus" `Slow test_degenerate_over_corpus;
         Alcotest.test_case "degenerate on PR-8 fast-path plans" `Quick
           test_degenerate_on_fast_paths;
         Alcotest.test_case "queueing over corpus" `Slow test_queueing_over_corpus ]);
      ("latency distributions",
       [ Alcotest.test_case "supports" `Quick test_latency_supports;
         Alcotest.test_case "bounds helpers" `Quick test_latency_bounds_helpers;
         Alcotest.test_case "invalid plans" `Quick test_invalid_latency_plans ]);
      ("rng hardening",
       [ Alcotest.test_case "latency stream independent of jitter" `Quick
           test_latency_stream_independent_of_jitter;
         Alcotest.test_case "failure stream independent of latency" `Quick
           test_failure_stream_independent_of_latency;
         Alcotest.test_case "pinned draws" `Quick test_pinned_draws ]);
      ("telemetry",
       [ Alcotest.test_case "delayed_hit event json" `Quick test_delayed_hit_event_json ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_delayed_invariants ]) ]
