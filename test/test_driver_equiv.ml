(* Driver-equivalence suite (PR 5).

   The fast driver engine (monotone next-missing frontiers, the
   lazy-invalidation eviction heap, the event-skipping clock) must be
   observationally identical to the seed implementation, which lives on
   as Driver.Reference.  "Identical" here is the strongest available
   check: byte-identical Fetch_op.schedules - same fetches, same
   anchors, same delays, same evictions, same order - for every
   driver-based scheduler across the conformance fuzzer's tiered corpus
   plus a scale-ish smoke, with stall accounting cross-checked through
   the executor.

   Also a property over the driver's cursor-synchronized next/last
   reference arrays, the unit tests for Evict_heap's lazy invalidation,
   the typed errors of Driver.start_fetch, and allocation ceilings for
   the decide layer and the Next_ref build. *)

let fail_diff ~descr ~alg (fast : Fetch_op.schedule) (ref_ : Fetch_op.schedule) =
  let pp sched =
    String.concat "; "
      (List.map (fun op -> Format.asprintf "%a" Fetch_op.pp op) sched)
  in
  Alcotest.failf "%s: %s schedules diverge@.fast: %s@.ref:  %s" alg descr (pp fast) (pp ref_)

(* Schedulers under test.  Delay at several d (0 = Aggressive's twin,
   large = Conservative-ish), Online at several lookaheads; the parallel
   entries only run on multi-disk instances, the single-disk-only ones
   skip them. *)
let single_disk_algorithms =
  [ ("aggressive", Aggressive.schedule);
    ("conservative", Conservative.schedule);
    ("delay(0)", Delay.schedule ~d:0);
    ("delay(1)", Delay.schedule ~d:1);
    ("delay(3)", Delay.schedule ~d:3);
    ("combination", Combination.schedule);
    ("online(1)", Online.schedule (Online.aggressive ~lookahead:1));
    ("online(4)", Online.schedule (Online.aggressive ~lookahead:4));
    ("online(8)", Online.schedule (Online.aggressive ~lookahead:8));
    (* Delayed online variants exercise the fast path's class-B window
       (blocks referenced inside [i, i+d') only) against the reference
       score-everything fold. *)
    ("online(4,d2)", Online.schedule Online.{ lookahead = 4; delay = 2 });
    ("online(8,d1)", Online.schedule Online.{ lookahead = 8; delay = 1 });
    ("online(8,d3)", Online.schedule Online.{ lookahead = 8; delay = 3 }) ]

let any_disk_algorithms =
  [ ("fixed-horizon", Fixed_horizon.schedule);
    ("reverse-aggressive", Reverse_aggressive.schedule) ]

let parallel_algorithms =
  [ ("aggressive-D", Parallel_greedy.aggressive_schedule);
    ("conservative-D", Parallel_greedy.conservative_schedule) ]

let algorithms_for (inst : Instance.t) =
  if inst.Instance.num_disks = 1 then single_disk_algorithms @ any_disk_algorithms
  else any_disk_algorithms @ parallel_algorithms

let check_instance ~descr inst =
  List.iter
    (fun (alg, schedule) ->
       let fast = schedule inst in
       let ref_ = Driver.with_engine Driver.Reference (fun () -> schedule inst) in
       if fast <> ref_ then fail_diff ~descr ~alg fast ref_;
       (* Replay sanity: the shared schedule must be executor-valid. *)
       match Simulate.run inst fast with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "%s: %s invalid at t=%d: %s" descr alg e.Simulate.at_time e.Simulate.reason)
    (algorithms_for inst)

(* The ck_gen tiered corpus: deterministic cases cycling Tiny / Single /
   Parallel, exactly what ipc fuzz feeds its oracles. *)
let test_corpus_equivalence () =
  for index = 0 to 89 do
    let case = Ck_gen.generate ~seed:7 ~index in
    check_instance
      ~descr:(Printf.sprintf "case %d (%s)" index case.Ck_gen.descr)
      case.Ck_gen.inst
  done

(* Medium-size single-disk instances: large enough for real frontier
   movement, eviction-heap churn and long stall runs, small enough that
   the quadratic reference engine stays fast. *)
let test_medium_equivalence () =
  List.iter
    (fun (fam : Workload.family) ->
       List.iter
         (fun (k, f) ->
            let seq = fam.Workload.generate ~seed:5 ~n:2_000 ~num_blocks:64 in
            let inst = Workload.single_instance ~k ~fetch_time:f seq in
            check_instance
              ~descr:(Printf.sprintf "%s n=2000 k=%d F=%d" fam.Workload.name k f)
              inst)
         [ (4, 7); (16, 4) ])
    Workload.scale_families

(* The paper's own lower-bound family: adversarial for Aggressive's
   eviction choice, so a good frontier-clamping stress. *)
let test_theorem2_equivalence () =
  let inst = Workload.theorem2_lower_bound ~k:9 ~fetch_time:3 ~phases:12 in
  check_instance ~descr:"theorem2 k=9 F=3" inst

(* Delayed online used to livelock here in both engines: with the victim
   scored from i + d' only, it evicted the block the cursor was stalled
   on and ping-ponged blocks 0/1 through the k = 1 cache forever.  The
   consistency gate (victim's next visible request from the cursor must
   land past the miss) makes it terminate; both engines must still agree
   and the executor must accept the schedule. *)
let test_online_delay_livelock () =
  let inst =
    Instance.single_disk ~k:1 ~fetch_time:2 ~initial_cache:[ 0 ]
      [| 0; 1; 0; 1; 0; 1 |]
  in
  List.iter
    (fun (la, dl) ->
       let cfg = Online.{ lookahead = la; delay = dl } in
       let fast = Online.schedule cfg inst in
       let ref_ = Driver.with_engine Driver.Reference (fun () -> Online.schedule cfg inst) in
       if fast <> ref_ then
         fail_diff ~descr:"livelock family" ~alg:(Printf.sprintf "online(%d,d%d)" la dl) fast ref_;
       match Simulate.run inst fast with
       | Ok _ -> ()
       | Error e ->
         Alcotest.failf "online(%d,d%d) invalid at t=%d: %s" la dl e.Simulate.at_time e.Simulate.reason)
    [ (4, 2); (2, 1); (8, 3); (1, 0) ]

(* Driver-level stall accounting must agree between engines too (the
   schedules being equal makes it so unless the event-skipping clock
   miscounts bulk stalls). *)
let test_stall_accounting () =
  let inst =
    Workload.single_instance ~k:6 ~fetch_time:9
      (Workload.sequential_scan ~n:500 ~num_blocks:50)
  in
  let fast = Driver.run inst ~decide:Aggressive.decide in
  let ref_ = Driver.with_engine Driver.Reference (fun () -> Driver.run inst ~decide:Aggressive.decide) in
  Alcotest.(check int) "stall" (Driver.stall_time ref_) (Driver.stall_time fast);
  Alcotest.(check int) "elapsed clock" (Driver.time ref_) (Driver.time fast);
  match Simulate.run inst (Driver.schedule fast) with
  | Ok s -> Alcotest.(check int) "executor stall" s.Simulate.stall_time (Driver.stall_time fast)
  | Error e -> Alcotest.failf "invalid: %s" e.Simulate.reason

(* ------------------------------------------------------------------ *)
(* Cursor-synchronized lookahead.  The Fast engine answers its next- and
   previous-reference queries from two per-block arrays that serve_one
   keeps in step with the cursor; the schedule checks above only see a
   stale entry if it changes a decision.  This property looks at the
   arrays themselves: at every decide call of a live run, for every
   block, next_use / last_use / prev_before must equal the Next_ref
   binary searches. *)

let check_lookahead d =
  let inst = Driver.instance d in
  let nr = Driver.next_ref d in
  let n = Instance.length inst and c = Driver.cursor d in
  let fail what b j got want =
    QCheck2.Test.fail_reportf "%s b%d at cursor %d (j = %d): driver %d, Next_ref %d" what b c j
      got want
  in
  for b = 0 to Instance.num_blocks inst - 1 do
    let want = Next_ref.next_at_or_after nr b c in
    if Driver.next_use d b <> want then fail "next_use" b c (Driver.next_use d b) want;
    let want = Next_ref.prev_before nr b c in
    if Driver.last_use d b <> want then fail "last_use" b c (Driver.last_use d b) want;
    (* Delay asks at the next missing position, anywhere past the
       cursor: cover a window past the cursor, and past the end. *)
    for j = c to Stdlib.min (n + 1) (c + (2 * inst.Instance.fetch_time) + 2) do
      let want = Next_ref.prev_before nr b j in
      if Driver.prev_before d b j <> want then fail "prev_before" b j (Driver.prev_before d b j) want
    done
  done

let gen_lookahead_case =
  QCheck2.Gen.(
    let* num_blocks = int_range 2 12 in
    let* n = int_range 1 120 in
    let* seq = array_size (return n) (int_range 0 (num_blocks - 1)) in
    let* num_disks = oneofl [ 1; 2; 4 ] in
    let* disk_of = array_size (return num_blocks) (int_range 0 (num_disks - 1)) in
    let* k = int_range 1 (Stdlib.min 6 num_blocks) in
    let* f = int_range 1 9 in
    let* warm = int_range 0 k in
    let* initial = shuffle_l (List.init num_blocks Fun.id) in
    let initial_cache = List.filteri (fun i _ -> i < warm) initial in
    let inst =
      if num_disks = 1 then Instance.single_disk ~k ~fetch_time:f ~initial_cache seq
      else Instance.parallel ~k ~fetch_time:f ~num_disks ~disk_of ~initial_cache seq
    in
    return inst)

(* The deciders under the check: Aggressive(-D) on every D, and on one
   disk Delay(d) at d = 0, d0 (Corollary 1) and 2F. *)
let lookahead_deciders (inst : Instance.t) =
  let f = inst.Instance.fetch_time in
  if inst.Instance.num_disks > 1 then
    [ ("aggressive-D", fun () -> Parallel_greedy.aggressive_decide) ]
  else
    ("aggressive", fun () -> Aggressive.decide)
    :: List.map
         (fun d -> (Printf.sprintf "delay(%d)" d, fun () -> Delay.decide ~d))
         [ 0; Bounds.delay_opt_d ~f; 2 * f ]

let prop_lookahead_arrays =
  QCheck2.Test.make ~count:400 ~name:"driver next/last arrays = Next_ref at every decide"
    ~print:(fun inst -> Format.asprintf "%a" Instance.pp inst)
    gen_lookahead_case
    (fun inst ->
       List.iter
         (fun engine ->
            Driver.with_engine engine (fun () ->
              List.iter
                (fun (_, make) ->
                   let decide = make () in
                   ignore
                     (Driver.run inst ~decide:(fun d ->
                        check_lookahead d;
                        decide d)))
                (lookahead_deciders inst)))
         [ Driver.Fast; Driver.Reference ];
       true)

(* ------------------------------------------------------------------ *)
(* Evict_heap unit tests. *)

let test_heap_basic () =
  let h = Evict_heap.create ~num_blocks:8 in
  Alcotest.(check (option (pair int int))) "empty" None (Evict_heap.peek h);
  Evict_heap.add h ~block:3 ~key:10;
  Evict_heap.add h ~block:1 ~key:25;
  Evict_heap.add h ~block:5 ~key:17;
  Alcotest.(check (option (pair int int))) "max" (Some (1, 25)) (Evict_heap.peek h);
  Evict_heap.remove h ~block:1;
  Alcotest.(check (option (pair int int))) "after remove" (Some (5, 17)) (Evict_heap.peek h);
  Alcotest.(check int) "live" 2 (Evict_heap.size h);
  Alcotest.(check bool) "mem" false (Evict_heap.mem h 1);
  Alcotest.(check int) "key_of" 10 (Evict_heap.key_of h 3)

let test_heap_tie_break () =
  (* Equal keys resolve towards the smallest block id - the seed scan's
     tie-break, load-bearing for byte-identical schedules. *)
  let h = Evict_heap.create ~num_blocks:8 in
  Evict_heap.add h ~block:6 ~key:9;
  Evict_heap.add h ~block:2 ~key:9;
  Evict_heap.add h ~block:4 ~key:9;
  Alcotest.(check (option (pair int int))) "smallest id wins" (Some (2, 9)) (Evict_heap.peek h)

let test_heap_lazy_invalidation () =
  let h = Evict_heap.create ~num_blocks:4 in
  Evict_heap.add h ~block:0 ~key:5;
  Evict_heap.add h ~block:1 ~key:9;
  (* Re-keying pushes a fresh entry and leaves the old one in place...  *)
  Evict_heap.add h ~block:1 ~key:2;
  Evict_heap.add h ~block:0 ~key:7;
  Alcotest.(check int) "stale entries accumulate" 4 (Evict_heap.heap_load h);
  Alcotest.(check int) "but live count tracks blocks" 2 (Evict_heap.size h);
  (* ... and peek discards the superseded top (0,5)/(1,9) lazily. *)
  Alcotest.(check (option (pair int int))) "peek sees only live keys" (Some (0, 7)) (Evict_heap.peek h);
  Alcotest.(check bool) "stale top collected" true (Evict_heap.heap_load h < 4);
  Evict_heap.remove h ~block:0;
  Alcotest.(check (option (pair int int))) "removal is lazy too" (Some (1, 2)) (Evict_heap.peek h);
  Evict_heap.remove h ~block:1;
  Alcotest.(check (option (pair int int))) "drained" None (Evict_heap.peek h);
  Alcotest.(check int) "no live entries" 0 (Evict_heap.size h)

let test_heap_rejects_negative_keys () =
  (* -1 is the internal no-live-entry sentinel; a negative key once made
     an Online recency entry unremovable (livelocked top_a).  The heap
     now refuses instead. *)
  let h = Evict_heap.create ~num_blocks:4 in
  Alcotest.check_raises "negative key"
    (Invalid_argument "Evict_heap.add: key must be >= 0")
    (fun () -> Evict_heap.add h ~block:1 ~key:(-1))

let test_heap_compaction () =
  (* Serve-style churn: re-key one block thousands of times without
     peeking.  Compaction must keep the physical heap O(live), not O(m). *)
  let h = Evict_heap.create ~num_blocks:4 in
  Evict_heap.add h ~block:2 ~key:1_000_000;
  for i = 0 to 9_999 do
    Evict_heap.add h ~block:0 ~key:i
  done;
  Alcotest.(check bool) "heap stays compact"
    true (Evict_heap.heap_load h <= 64 * 2);
  Alcotest.(check (option (pair int int))) "peek correct after churn"
    (Some (2, 1_000_000)) (Evict_heap.peek h)

let test_heap_top_matches_peek () =
  (* The allocation-free top reads what [peek] returns, settles stale
     entries the same way (same stale-pop count), and answers -1 when
     the heap is drained. *)
  let h = Evict_heap.create ~num_blocks:8 in
  Alcotest.(check int) "empty block" (-1) (Evict_heap.top_block h);
  Alcotest.(check int) "empty key" (-1) (Evict_heap.top_key h);
  Evict_heap.add h ~block:4 ~key:12;
  Evict_heap.add h ~block:2 ~key:40;
  Evict_heap.add h ~block:7 ~key:30;
  Evict_heap.add h ~block:2 ~key:3;
  (* Either read settles on its own: the key first here, the block
     first below. *)
  Alcotest.(check int) "top key after re-key" 30 (Evict_heap.top_key h);
  Alcotest.(check int) "top block" 7 (Evict_heap.top_block h);
  Alcotest.(check int) "stale top popped once" 1 (Evict_heap.stale_pops h);
  Alcotest.(check (option (pair int int))) "peek agrees" (Some (7, 30)) (Evict_heap.peek h);
  Evict_heap.remove h ~block:7;
  Evict_heap.remove h ~block:4;
  Alcotest.(check int) "last live block" 2 (Evict_heap.top_block h);
  Alcotest.(check int) "its key" 3 (Evict_heap.top_key h);
  Evict_heap.remove h ~block:2;
  Alcotest.(check int) "drained" (-1) (Evict_heap.top_block h);
  Alcotest.(check (option (pair int int))) "peek drained" None (Evict_heap.peek h)

(* ------------------------------------------------------------------ *)
(* Driver.start_fetch preconditions are typed errors, not assertions:
   they hold under -noassert and name the driver as the component. *)

let expect_driver_error what f =
  match f () with
  | () -> Alcotest.failf "%s: start_fetch accepted an illegal fetch" what
  | exception Simulate.Internal_error { component; _ } ->
    Alcotest.(check string) (what ^ ": component") "driver" component

let test_error_busy_disk () =
  let inst = Instance.single_disk ~k:3 ~fetch_time:2 ~initial_cache:[] [| 0; 1; 2 |] in
  let d = Driver.create inst in
  Driver.start_fetch d ~block:0 ~evict:None;
  expect_driver_error "busy disk" (fun () -> Driver.start_fetch d ~block:1 ~evict:None)

let test_error_already_resident () =
  let inst = Instance.single_disk ~k:2 ~fetch_time:2 ~initial_cache:[ 0 ] [| 0; 1 |] in
  let d = Driver.create inst in
  expect_driver_error "resident block" (fun () -> Driver.start_fetch d ~block:0 ~evict:None)

let test_error_already_in_flight () =
  let inst =
    Instance.parallel ~k:3 ~fetch_time:2 ~num_disks:2 ~disk_of:[| 0; 1 |] ~initial_cache:[]
      [| 0; 1 |]
  in
  let d = Driver.create inst in
  Driver.start_fetch d ~disk:1 ~block:1 ~evict:None;
  expect_driver_error "in-flight block" (fun () ->
    Driver.start_fetch d ~disk:0 ~block:1 ~evict:None)

let test_error_victim_not_resident () =
  let inst = Instance.single_disk ~k:1 ~fetch_time:2 ~initial_cache:[ 0 ] [| 0; 1; 2 |] in
  let d = Driver.create inst in
  expect_driver_error "absent victim" (fun () -> Driver.start_fetch d ~block:1 ~evict:(Some 2))

(* ------------------------------------------------------------------ *)
(* Allocation ceilings.  The decide layer keeps its state in flat int
   arrays and answers queries as ints, so what Aggressive allocates is
   essentially its output: one Fetch_op record, its list cell and the
   eviction option per fetch.  Counts are deterministic for a fixed
   input. *)

let scale_zipf_instance n =
  Workload.single_instance ~k:64 ~fetch_time:8
    (Workload.zipf ~seed:13 ~alpha:0.9 ~n ~num_blocks:(n / 64))

let minor_words_per_request n f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  (Gc.minor_words () -. before) /. float_of_int n

let test_aggressive_minor_words () =
  Telemetry.set_enabled false;
  let n = 100_000 in
  let inst = scale_zipf_instance n in
  let per_request = minor_words_per_request n (fun () -> Aggressive.schedule inst) in
  if per_request > 16.0 then
    Alcotest.failf "Aggressive.schedule allocated %.1f minor words/request (ceiling 16)"
      per_request

(* Conservative, Delay and Aggressive-D allocate the same kind of
   output; Conservative's plan adds three int columns, Aggressive-D's
   four-disk instance its layout. *)
let check_ceiling name ceiling n f =
  Telemetry.set_enabled false;
  let per_request = minor_words_per_request n f in
  if per_request > ceiling then
    Alcotest.failf "%s allocated %.1f minor words/request (ceiling %.0f)" name per_request ceiling

let test_conservative_minor_words () =
  let n = 100_000 in
  let inst = scale_zipf_instance n in
  check_ceiling "Conservative.schedule" 16.0 n (fun () -> Conservative.schedule inst)

let test_delay_minor_words () =
  let n = 100_000 in
  let inst = scale_zipf_instance n in
  let d = Bounds.delay_opt_d ~f:inst.Instance.fetch_time in
  check_ceiling "Delay.schedule" 16.0 n (fun () -> Delay.schedule ~d inst)

let test_parallel_greedy_minor_words () =
  let n = 100_000 in
  let inst =
    Workload.parallel_instance ~k:64 ~fetch_time:8 ~num_disks:4
      ~layout:(fun ~num_blocks ~num_disks -> Workload.striped_layout ~num_blocks ~num_disks)
      (Workload.zipf ~seed:13 ~alpha:0.9 ~n ~num_blocks:(n / 64))
  in
  check_ceiling "Parallel_greedy.aggressive_schedule" 16.0 n (fun () ->
    Parallel_greedy.aggressive_schedule inst)

let test_next_ref_build_minor_words () =
  let n = 100_000 in
  let inst = scale_zipf_instance n in
  let per_request = minor_words_per_request n (fun () -> Next_ref.of_instance inst) in
  if per_request > 1.0 then
    Alcotest.failf "Next_ref.build allocated %.2f minor words/request (ceiling 1)" per_request

let () =
  Alcotest.run "driver-equiv"
    [ ("fast-vs-reference",
       [ Alcotest.test_case "ck_gen corpus, all schedulers" `Quick test_corpus_equivalence;
         Alcotest.test_case "medium scale families" `Quick test_medium_equivalence;
         Alcotest.test_case "theorem-2 family" `Quick test_theorem2_equivalence;
         Alcotest.test_case "online delay livelock family" `Quick test_online_delay_livelock;
         Alcotest.test_case "stall accounting" `Quick test_stall_accounting ]);
      ("lookahead", [ QCheck_alcotest.to_alcotest prop_lookahead_arrays ]);
      ("evict-heap",
       [ Alcotest.test_case "basic order" `Quick test_heap_basic;
         Alcotest.test_case "tie-break towards smaller id" `Quick test_heap_tie_break;
         Alcotest.test_case "lazy invalidation" `Quick test_heap_lazy_invalidation;
         Alcotest.test_case "rejects negative keys" `Quick test_heap_rejects_negative_keys;
         Alcotest.test_case "compaction bounds the heap" `Quick test_heap_compaction;
         Alcotest.test_case "allocation-free top matches peek" `Quick
           test_heap_top_matches_peek ]);
      ("driver errors",
       [ Alcotest.test_case "fetch on a busy disk" `Quick test_error_busy_disk;
         Alcotest.test_case "fetch of a resident block" `Quick test_error_already_resident;
         Alcotest.test_case "fetch of an in-flight block" `Quick test_error_already_in_flight;
         Alcotest.test_case "eviction of an absent block" `Quick
           test_error_victim_not_resident ]);
      ("allocation",
       [ Alcotest.test_case "aggressive decide ceiling" `Quick test_aggressive_minor_words;
         Alcotest.test_case "conservative decide ceiling" `Quick test_conservative_minor_words;
         Alcotest.test_case "delay decide ceiling" `Quick test_delay_minor_words;
         Alcotest.test_case "parallel greedy decide ceiling" `Quick
           test_parallel_greedy_minor_words;
         Alcotest.test_case "next_ref build ceiling" `Quick test_next_ref_build_minor_words ]) ]
