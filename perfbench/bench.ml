(* The run loop: set-up, closed-loop passes for the time budget,
   correctness checks, and the metrics of one run.

   Host times are reported at reference speed.  The calibration kernel
   runs before the first set-up, after the last one, and after every
   pass; each pass time is scaled by [reference_kernel_ms] over the mean
   of the kernel times on either side of it, and each set-up time by the
   same ratio taken around all the set-ups (they last a second at most).
   On a shared host the speed of the whole machine drifts by 20-40 % over
   minutes; the scaled times cancel most of that drift, so that two runs
   of the same code minutes apart agree, and a result taken elsewhere
   compares in absolute terms.  The raw times are kept and printed too.

   A run sets the workload up at least [setup_reps] times, and more
   while the set-ups together took under [setup_floor_s] (up to
   [setup_max_reps]), so that a cheap set-up is still a stable median.
   It keeps the last inputs, then makes passes, one at a time, until the
   next pass would overrun [seconds] (and at least one pass per distinct
   input).  An
   untraced run reports the end-to-end metrics from its passes.  A
   traced run alternates untraced and traced passes over the same
   inputs, so that their ratio is the tracing overhead, and reports the
   per-layer metrics from the traced passes and the workload's probes. *)

(* About the kernel's median time on the 2-core Xeon box the benchmark
   was tuned on; a scaled time is the time the step would have taken
   with the machine running at that speed. *)
let reference_kernel_ms = 30.

let setup_reps = 3
let setup_floor_s = 0.25
let setup_max_reps = 200

(* The end-to-end metrics, every one reported by every workload. *)
let end_to_end =
  [ ("setup_s", "s"); ("requests_per_s", "1/s"); ("pass_s", "s"); ("peak_heap_mb", "MiB");
    ("sim_stall_per_request", "units/request"); ("ops_ok_ratio", "ratio") ]

(* The per-layer metrics.  Every workload reports every one; a layer the
   workload does not touch reads 0. *)
let per_layer =
  [ ("workload.gen_s", "s"); ("machine.calibration_ms", "ms"); ("tracing.overhead_ratio", "ratio");
    ("ops.failed_ratio", "ratio");
    ("next_ref.build_ns_per_req", "ns/req"); ("next_ref.build_words_per_req", "words/req") ]
  @ List.concat_map
      (fun s ->
         [ (s ^ ".schedule_ns_per_req", "ns/req"); (s ^ ".schedule_words_per_req", "words/req") ])
      [ "aggressive"; "conservative"; "delay"; "parallel_greedy" ]
  @ [ ("driver.heap_stale_pop_ratio", "ratio"); ("driver.clock_skip_ratio", "ratio");
      ("driver.frontier_clamps_per_req", "count/req"); ("telemetry.overhead_ratio", "ratio");
      ("simulate.run_ns_per_req", "ns/req"); ("simulate.run_words_per_req", "words/req");
      ("simulate.run_faulty_ns_per_req", "ns/req"); ("simulate.run_faulty_words_per_req", "words/req");
      ("delayed.run_ns_per_req", "ns/req"); ("delayed.run_words_per_req", "words/req");
      ("faults.retries_per_fetch", "ratio"); ("delayed.hit_ratio", "ratio");
      ("delayed.max_queue_depth", "count");
      ("trace_io.read_ns_per_req", "ns/req"); ("trace_io.read_words_per_req", "words/req");
      ("win_ref.ns_per_req", "ns/req"); ("win_ref.words_per_req", "words/req");
      ("stream.aggressive_ns_per_req", "ns/req"); ("stream.aggressive_words_per_req", "words/req");
      ("stream.markov_ns_per_req", "ns/req"); ("stream.markov_words_per_req", "words/req");
      ("stream.refills_per_req", "count/req");
      ("stream.aggressive_demand_fetch_ratio", "ratio");
      ("stream.markov_demand_fetch_ratio", "ratio"); ("stream.heap_mb", "MiB");
      ("sync_lp.build_s", "s"); ("revised.solve_s", "s"); ("rounding.self_s", "s");
      ("revised.pivots", "count"); ("revised.degenerate_ratio", "ratio");
      ("revised.refactorizations", "count"); ("revised.certified_ratio", "ratio");
      ("revised.warm_accept_ratio", "ratio"); ("rounding.candidates_tried", "count");
      ("rounding.used_fallback", "ratio"); ("rounding.lp_solves", "count") ]

type measured = {
  index : int;  (** pass id in the span records, from 1 *)
  input : int;
  traced : bool;
  ns : int;  (** raw host time *)
  scaled_s : float;  (** host time at reference speed *)
  result : Suite.pass;
}

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Schema.metric list;
  digest : string;  (** of the simulated statistics of every input *)
  errors : string list;
  passes : measured list;
  setup_ns : int list;
  tracer : Span.tracer;
}

let seconds_of_ns ns = float_of_int ns /. 1e9

let to_metrics table names =
  List.map
    (fun (name, unit_) ->
       { Schema.name; unit_; value = Option.value (List.assoc_opt name table) ~default:0. })
    names

(* Per metric name, the median of its values over the given tables. *)
let median_by_name tables =
  let names = List.sort_uniq compare (List.concat_map (List.map fst) tables) in
  List.map
    (fun name -> (name, Quantile.median (List.filter_map (List.assoc_opt name) tables)))
    names

(* Traced over untraced time of each traced pass and the untraced pass
   just before it on the same input. *)
let rec pair_ratios = function
  | a :: (b :: rest as tl) ->
    if (not a.traced) && b.traced && a.input = b.input then
      (float_of_int b.ns /. float_of_int a.ns) :: pair_ratios rest
    else pair_ratios tl
  | [ _ ] | [] -> []

(* The factor that scales a host time to reference speed, from the
   kernel time before it, [!kernel], and a fresh one after it, which
   becomes [!kernel]. *)
let scale_since kernel =
  let before = !kernel in
  kernel := Machine.kernel_ns ();
  reference_kernel_ms /. (float_of_int (before + !kernel) /. 2e6)

let run (w : Suite.workload) ~sizes ~seed ~seconds ~trace ~dir ~(machine : Machine.t) =
  let tr = Span.create ~on:trace in
  let kernel = ref (Machine.kernel_ns ()) in
  let rec set_up r acc =
    Span.set_pass tr (-r);
    let t0 = Span.now_ns () in
    let ready = w.Suite.setup sizes ~seed ~dir tr in
    let acc = (Span.now_ns () - t0) :: acc in
    let total = seconds_of_ns (List.fold_left ( + ) 0 acc) in
    if r >= setup_max_reps || (r >= setup_reps && total >= setup_floor_s) then (ready, List.rev acc)
    else set_up (r + 1) acc
  in
  let ready, setup_ns = set_up 1 [] in
  let setup_scale = scale_since kernel in
  let cycle = ready.Suite.cycle in
  let min_passes = if trace then 2 * cycle else cycle in
  let budget = int_of_float (seconds *. 1e9) in
  let t_start = Span.now_ns () in
  let rec loop p acc =
    let estimate =
      match acc with [] -> 0 | _ -> int_of_float (Quantile.median (List.map (fun m -> float_of_int m.ns) acc))
    in
    if p >= min_passes && Span.now_ns () - t_start + estimate > budget then List.rev acc
    else begin
      let traced = trace && p mod 2 = 1 in
      let input = (if trace then p / 2 else p) mod cycle in
      Span.set_pass tr (p + 1);
      (* Every pass starts from a collected heap; the collection is not
         timed. *)
      Gc.full_major ();
      let t0 = Span.now_ns () in
      let result = ready.Suite.run_pass (if traced then tr else Span.off) input in
      let ns = Span.now_ns () - t0 in
      let scaled_s = seconds_of_ns ns *. scale_since kernel in
      loop (p + 1) ({ index = p + 1; input; traced; ns; scaled_s; result } :: acc)
    end
  in
  let passes = loop 0 [] in
  let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  (* The simulated results of an input must not change from pass to
     pass, traced or not. *)
  let firsts = List.init cycle (fun i -> List.find (fun m -> m.input = i) passes) in
  let drift =
    List.filter_map
      (fun m ->
         let first = List.nth firsts m.input in
         if m.result.Suite.digest = first.result.Suite.digest then None
         else Some (Printf.sprintf "pass %d: simulated results differ from pass %d" m.index first.index))
      passes
  in
  let stall = List.fold_left (fun a m -> a + m.result.Suite.stall) 0 firsts in
  let stall_requests = List.fold_left (fun a m -> a + m.result.Suite.stall_requests) 0 firsts in
  let digest =
    Digest.to_hex (Digest.string (String.concat "," (List.map (fun m -> m.result.Suite.digest) firsts)))
  in
  let probe_ops = Suite.new_ops () in
  let probed =
    if not trace then []
    else begin
      Span.set_pass tr 0;
      Option.value ~default:[] (Suite.op probe_ops "probe" (fun () -> Ok (ready.Suite.probe tr)))
    end
  in
  let attempted =
    List.fold_left (fun a m -> a + m.result.Suite.ops.Suite.attempted) probe_ops.Suite.attempted passes
  in
  let failed =
    List.fold_left (fun a m -> a + m.result.Suite.ops.Suite.failed) probe_ops.Suite.failed passes
    + List.length drift
  in
  let errors =
    List.concat_map (fun m -> List.rev m.result.Suite.ops.Suite.errors) passes
    @ List.rev probe_ops.Suite.errors @ drift
  in
  let untraced = List.filter (fun m -> not m.traced) passes in
  let ok_ratio = float_of_int (attempted - failed) /. float_of_int (Stdlib.max 1 attempted) in
  let metrics =
    if not trace then
      to_metrics
        [ ("setup_s", Quantile.median (List.map seconds_of_ns setup_ns) *. setup_scale);
          ("requests_per_s",
           Quantile.median
             (List.map (fun m -> float_of_int m.result.Suite.requests /. m.scaled_s) untraced));
          ("pass_s", Quantile.median (List.map (fun m -> m.scaled_s) untraced));
          ("peak_heap_mb", float_of_int (peak_words * (Sys.word_size / 8)) /. 1048576.);
          ("sim_stall_per_request",
           if stall_requests = 0 then 0. else float_of_int stall /. float_of_int stall_requests);
          ("ops_ok_ratio", ok_ratio) ]
        end_to_end
    else begin
      let traced = List.filter (fun m -> m.traced) passes in
      let layer_tables =
        List.map (fun m -> ready.Suite.layers m.result (Span.pass_totals tr m.index)) traced
      in
      let gen_s =
        Quantile.median
          (List.mapi
             (fun r _ -> seconds_of_ns (fst (Span.pass_totals tr (-(r + 1)) "workload.gen")))
             setup_ns)
      in
      let table =
        [ ("workload.gen_s", gen_s);
          ("machine.calibration_ms", machine.Machine.calibration_ms);
          ("tracing.overhead_ratio", Quantile.median (pair_ratios passes));
          ("ops.failed_ratio", 1. -. ok_ratio) ]
        @ median_by_name layer_tables @ probed
      in
      List.iter
        (fun (name, _) ->
           if not (List.mem_assoc name per_layer) then
             invalid_arg (Printf.sprintf "Bench.run: undeclared per-layer metric %S" name))
        table;
      to_metrics table per_layer
    end
  in
  { correct = failed = 0; attempted; failed; metrics; digest; errors; passes; setup_ns; tracer = tr }
