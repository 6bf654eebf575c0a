(* Scale fuzz tier.  See ck_scale.mli. *)

open Ck_oracle

let min_n = 10_000
let max_n = 100_000
let budget_ratio = 5.0
let budget_floor_seconds = 0.25
let spot_check_cap = 10_000

(* Parallel sub-tier: every third case is a D-disk trace.  The reference
   engine replays both greedy-D schedulers, so the spot check stays
   affordable at a shorter prefix (each case runs 2 x D frontier scans). *)
let parallel_min_n = 10_000
let parallel_max_n = 50_000
let parallel_max_disks = 8
let parallel_spot_check_cap = 5_000

(* Aggressive anchors the time budgets, so it is kept apart from the
   schedulers it budgets. *)
let budgeted_schedulers inst =
  let f = inst.Instance.fetch_time in
  let d0 = Bounds.delay_opt_d ~f in
  [ ("conservative", Conservative.schedule);
    (Printf.sprintf "delay(%d)" d0, fun i -> Delay.schedule ~d:d0 i);
    ("combination", Combination.schedule);
    ("fixed_horizon", Fixed_horizon.schedule);
    ( Printf.sprintf "online(la=%d)" (4 * f),
      fun i -> Online.schedule (Online.aggressive ~lookahead:(4 * f)) i );
    ("reverse_aggressive", Reverse_aggressive.schedule) ]

let schedulers inst = ("aggressive", Aggressive.schedule) :: budgeted_schedulers inst

(* The D-disk production schedulers plus the disk-agnostic pair, as in
   test_driver_equiv's corpus split; Aggressive-D anchors their budget. *)
let budgeted_parallel_schedulers =
  [ ("conservative-D", Parallel_greedy.conservative_schedule);
    ("fixed_horizon", Fixed_horizon.schedule);
    ("reverse_aggressive", Reverse_aggressive.schedule) ]

let parallel_schedulers (_inst : Instance.t) =
  ("aggressive-D", Parallel_greedy.aggressive_schedule) :: budgeted_parallel_schedulers

(* --- generation ------------------------------------------------------- *)

let state ~seed ~index = Random.State.make [| 0x5ca1e; seed; index |]

let pick st l = List.nth l (Random.State.int st (List.length l))

let generate_single ~index st : Ck_gen.case =
  (* Sizes weighted towards the cheap end: the tier's cost is dominated
     by its largest cases, and 10^4-range traces already exercise the
     frontier/heap machinery thousands of times. *)
  let n = pick st [ 10_000; 10_000; 20_000; 20_000; 50_000; 100_000 ] in
  let k = pick st [ 16; 64; 256 ] in
  let f = pick st [ 4; 8; 16 ] in
  let fam = pick st Workload.scale_families in
  let num_blocks = Stdlib.max (2 * k) (n / 64) in
  let seq = fam.Workload.generate ~seed:(Random.State.bits st) ~n ~num_blocks in
  let inst = Workload.single_instance ~k ~fetch_time:f seq in
  { Ck_gen.index;
    tier = Ck_gen.Single;
    descr = Printf.sprintf "scale:%s n=%d k=%d F=%d" fam.Workload.name n k f;
    inst }

let generate_parallel ~index st : Ck_gen.case =
  let n = pick st [ 10_000; 10_000; 20_000; 20_000; 50_000 ] in
  let k = pick st [ 16; 64; 256 ] in
  let f = pick st [ 4; 8; 16 ] in
  let d = pick st [ 2; 4; parallel_max_disks ] in
  let fam = pick st Workload.scale_families in
  let num_blocks = Stdlib.max (2 * k) (n / 64) in
  let seq = fam.Workload.generate ~seed:(Random.State.bits st) ~n ~num_blocks in
  let layout_seed = Random.State.bits st in
  let layout_name, layout =
    pick st
      [ ("striped", Workload.striped_layout);
        ("partitioned", Workload.partitioned_layout);
        ( "random",
          fun ~num_blocks ~num_disks ->
            Workload.random_layout ~seed:layout_seed ~num_blocks ~num_disks );
        ( "hot",
          fun ~num_blocks ~num_disks ->
            Workload.hot_disk_layout ~seed:layout_seed ~num_blocks ~num_disks
              ~hot_fraction:0.6 ) ]
  in
  let inst = Workload.parallel_instance ~k ~fetch_time:f ~num_disks:d ~layout seq in
  { Ck_gen.index;
    tier = Ck_gen.Parallel;
    descr =
      Printf.sprintf "scale-par:%s/%s n=%d k=%d F=%d D=%d" fam.Workload.name
        layout_name n k f d;
    inst }

let generate ~seed ~index : Ck_gen.case =
  let st = state ~seed ~index in
  (* Every third case exercises the D-disk schedulers at scale. *)
  if index mod 3 = 2 then generate_parallel ~index st else generate_single ~index st

(* --- oracles ---------------------------------------------------------- *)

(* Executor validity for all seven schedulers, with a relative time
   budget: scheduler time <= budget_ratio x Aggressive's time on the
   same instance (machine speed cancels out of the ratio, so the bound
   is stable across runners), under an absolute floor that keeps timer
   noise on small shrunk instances from failing.  A regression that
   reintroduces a per-decision linear scan blows the ratio by an order
   of magnitude at n = 10^5. *)
let validity_and_budget =
  make ~name:"scale: validity + per-scheduler time budget" ~cls:Validity
    (fun inst ->
      if inst.Instance.num_disks <> 1 then Skip "single-disk tier"
      else begin
        let timed (name, alg) =
          let t0 = Sys.time () in
          let sched = alg inst in
          let dt = Sys.time () -. t0 in
          (name, sched, dt)
        in
        (* Aggressive runs first; its time sets the others' budget. *)
        let ((_, _, aggressive_dt) as aggressive) = timed ("aggressive", Aggressive.schedule) in
        let runs = aggressive :: List.map timed (budgeted_schedulers inst) in
        let budget =
          Stdlib.max budget_floor_seconds (budget_ratio *. aggressive_dt)
        in
        let rec go = function
          | [] -> Pass
          | (name, sched, dt) :: rest -> (
            match Simulate.run inst sched with
            | Error { Simulate.reason; at_time } ->
              failf ~schedule:sched "%s rejected by executor at t=%d: %s" name
                at_time reason
            | Ok _ ->
              if dt > budget then
                failf ~schedule:sched
                  "%s took %.3fs, budget %.3fs (%.1fx aggressive's %.3fs)"
                  name dt budget budget_ratio aggressive_dt
              else go rest)
        in
        go runs
      end)

let accounting =
  make ~name:"scale: stall/attribution identities" ~cls:Accounting
    (fun inst ->
      if inst.Instance.num_disks <> 1 then Skip "single-disk tier"
      else begin
        let f = inst.Instance.fetch_time in
        let algs =
          [ ("aggressive", Aggressive.schedule);
            ("conservative", Conservative.schedule);
            ( Printf.sprintf "online(la=%d)" (4 * f),
              fun i -> Online.schedule (Online.aggressive ~lookahead:(4 * f)) i ) ]
        in
        let rec go = function
          | [] -> Pass
          | (alg_name, alg) :: rest -> (
            match Ck_validity.check_identities ~alg_name inst (alg inst) with
            | Some failure -> failure
            | None -> go rest)
        in
        go algs
      end)

let truncate (inst : Instance.t) cap =
  if Instance.length inst <= cap then inst
  else if inst.Instance.num_disks = 1 then
    Instance.single_disk ~k:inst.Instance.cache_size
      ~fetch_time:inst.Instance.fetch_time
      ~initial_cache:inst.Instance.initial_cache
      (Array.sub inst.Instance.seq 0 cap)
  else
    Instance.parallel ~k:inst.Instance.cache_size
      ~fetch_time:inst.Instance.fetch_time ~num_disks:inst.Instance.num_disks
      ~disk_of:inst.Instance.disk_of
      ~initial_cache:inst.Instance.initial_cache
      (Array.sub inst.Instance.seq 0 cap)

(* Fast-vs-reference spot check: byte-identical schedules on a prefix
   short enough for the quadratic Reference engine.  This is the same
   property test_driver_equiv pins on its fixed corpus, sampled here
   across the generated scale distribution. *)
let fast_vs_reference =
  make ~name:"scale: fast = reference on capped prefix" ~cls:Differential
    (fun inst ->
      if inst.Instance.num_disks <> 1 then Skip "single-disk tier"
      else begin
        let inst = truncate inst spot_check_cap in
        let rec go = function
          | [] -> Pass
          | (name, alg) :: rest ->
            let fast = alg inst in
            let ref_ = Driver.with_engine Driver.Reference (fun () -> alg inst) in
            if fast <> ref_ then
              failf ~schedule:fast
                "%s: fast/reference schedules diverge on %d-request prefix (%d vs %d ops)"
                name (Instance.length inst) (List.length fast) (List.length ref_)
            else go rest
        in
        go (schedulers inst)
      end)

(* --- parallel oracles -------------------------------------------------- *)

(* Mirrors of the three single-disk oracles over the D-disk schedulers;
   the budget is anchored to Aggressive-D the same way. *)
let parallel_validity_and_budget =
  make ~name:"scale: parallel validity + time budget" ~cls:Validity
    (fun inst ->
      if inst.Instance.num_disks = 1 then Skip "parallel tier"
      else begin
        let timed (name, alg) =
          let t0 = Sys.time () in
          let sched = alg inst in
          let dt = Sys.time () -. t0 in
          (name, sched, dt)
        in
        let ((_, _, aggressive_dt) as aggressive) =
          timed ("aggressive-D", Parallel_greedy.aggressive_schedule)
        in
        let runs = aggressive :: List.map timed budgeted_parallel_schedulers in
        let budget =
          Stdlib.max budget_floor_seconds (budget_ratio *. aggressive_dt)
        in
        let rec go = function
          | [] -> Pass
          | (name, sched, dt) :: rest -> (
            match Simulate.run inst sched with
            | Error { Simulate.reason; at_time } ->
              failf ~schedule:sched "%s rejected by executor at t=%d: %s" name
                at_time reason
            | Ok _ ->
              if dt > budget then
                failf ~schedule:sched
                  "%s took %.3fs, budget %.3fs (%.1fx aggressive-D's %.3fs)"
                  name dt budget budget_ratio aggressive_dt
              else go rest)
        in
        go runs
      end)

let parallel_accounting =
  make ~name:"scale: parallel stall/attribution identities" ~cls:Accounting
    (fun inst ->
      if inst.Instance.num_disks = 1 then Skip "parallel tier"
      else begin
        let algs =
          [ ("aggressive-D", Parallel_greedy.aggressive_schedule);
            ("conservative-D", Parallel_greedy.conservative_schedule) ]
        in
        let rec go = function
          | [] -> Pass
          | (alg_name, alg) :: rest -> (
            match Ck_validity.check_identities ~alg_name inst (alg inst) with
            | Some failure -> failure
            | None -> go rest)
        in
        go algs
      end)

let parallel_fast_vs_reference =
  make ~name:"scale: parallel fast = reference on capped prefix" ~cls:Differential
    (fun inst ->
      if inst.Instance.num_disks = 1 then Skip "parallel tier"
      else begin
        let inst = truncate inst parallel_spot_check_cap in
        let rec go = function
          | [] -> Pass
          | (name, alg) :: rest ->
            let fast = alg inst in
            let ref_ = Driver.with_engine Driver.Reference (fun () -> alg inst) in
            if fast <> ref_ then
              failf ~schedule:fast
                "%s: fast/reference schedules diverge on %d-request prefix (%d vs %d ops)"
                name (Instance.length inst) (List.length fast) (List.length ref_)
            else go rest
        in
        go (parallel_schedulers inst)
      end)

let all =
  [ validity_and_budget;
    accounting;
    fast_vs_reference;
    parallel_validity_and_budget;
    parallel_accounting;
    parallel_fast_vs_reference ]
