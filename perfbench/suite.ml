(* The four workloads.

   Each workload builds its inputs from the seed in [setup] (the library
   under test only ever sees the generated inputs) and returns a [ready]
   workload: [run_pass] performs one closed-loop pass of the measured
   operations, one call at a time, and [probe] runs the extra per-layer
   measurements of a traced run.  Every call into a layer goes through
   [Span.with_span], so a traced pass records one span per call and an
   untraced pass costs one branch per call. *)

type sizes = {
  batch_n : int;  (** requests of the batch Zipf trace *)
  stream_n : int;  (** requests of the stream trace *)
  stream_ids : int;  (** the stream trace's ids are spread over [0, stream_ids) *)
  replay_n : int;  (** requests of the sequential scan *)
  lp_instances : int;  (** LP instances, one solved per pass *)
  lp_n : int;  (** requests per LP instance *)
  lp_blocks : int;  (** blocks per LP instance *)
}

let full =
  { batch_n = 250_000; stream_n = 200_000; stream_ids = 8_000_000; replay_n = 250_000;
    lp_instances = 10; lp_n = 40; lp_blocks = 20 }

(* Small enough for the unit tests; every code path of [full] runs. *)
let smoke =
  { batch_n = 4_000; stream_n = 4_000; stream_ids = 100_000; replay_n = 2_000;
    lp_instances = 2; lp_n = 16; lp_blocks = 8 }

(* Operations and their failures.  An operation is one schedule, replay,
   stream run or solve call; it fails when it raises, returns an error,
   or its result fails a check.  A failure is counted and reported, and
   the pass goes on. *)
type ops = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let new_ops () = { attempted = 0; failed = 0; errors = [] }

let op ops name f =
  ops.attempted <- ops.attempted + 1;
  let fail msg =
    ops.failed <- ops.failed + 1;
    ops.errors <- Printf.sprintf "%s: %s" name msg :: ops.errors;
    None
  in
  match f () with
  | Ok v -> Some v
  | Error msg -> fail msg
  | exception e -> fail (Printexc.to_string e)

let check cond msg = if cond then Ok () else Error msg

(* What one pass produced.  [stall] and [stall_requests] are summed over
   the pass's schedules (simulated time, deterministic per seed);
   [digest] hashes every simulated statistic of the pass. *)
type pass = {
  requests : int;  (** input requests one pass processes *)
  stall : int;
  stall_requests : int;
  digest : string;
  ops : ops;
  counts : (string * float) list;  (** per-layer counts of this pass *)
}

type ready = {
  cycle : int;
      (** distinct inputs: pass [i] runs input [i mod cycle], and a run
          makes at least [cycle] passes so that the simulated totals
          cover every input *)
  run_pass : Span.tracer -> int -> pass;
  layers : pass -> (string -> int * float) -> (string * float) list;
      (** per-layer values of a traced pass, from its counts and from
          the summed self ns and self words of its spans by name *)
  probe : Span.tracer -> (string * float) list;
      (** extra per-layer measurements, traced runs only *)
}

type workload = {
  name : string;
  setup : sizes -> seed:int -> dir:string -> Span.tracer -> ready;
}

let per_req ~n (ns, words) = (float_of_int ns /. float_of_int n, words /. float_of_int n)
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Per-request time and words of every span in [names]. *)
let span_costs ~n spans names =
  List.concat_map
    (fun (span, base) ->
       let ns, words = per_req ~n (spans span) in
       [ (base ^ "ns_per_req", ns); (base ^ "words_per_req", words) ])
    names

let digest_stats buf label (s : Simulate.stats) =
  Printf.bprintf buf "%s stall=%d elapsed=%d started=%d completed=%d peak=%d busy=%s\n" label
    s.Simulate.stall_time s.Simulate.elapsed_time s.Simulate.fetches_started
    s.Simulate.fetches_completed s.Simulate.peak_occupancy
    (String.concat "," (Array.to_list (Array.map string_of_int s.Simulate.disk_busy)))

let finish_pass ~requests ~stall ~stall_requests buf ops counts =
  { requests; stall; stall_requests; digest = Digest.to_hex (Digest.string (Buffer.contents buf));
    ops; counts }

let sim_error (e : Simulate.error) = Printf.sprintf "rejected at t=%d: %s" e.at_time e.reason

(* Replay a schedule through [Simulate.run] as one operation. *)
let replay tr ops buf label inst sched =
  op ops "simulate.run" (fun () ->
      match Span.with_span tr "simulate.run" (fun () -> Simulate.run inst sched) with
      | Error e -> Error (sim_error e)
      | Ok st ->
        digest_stats buf label st;
        Result.map
          (fun () -> st)
          (check
             (st.Simulate.elapsed_time = Instance.length inst + st.Simulate.stall_time)
             "elapsed <> n + stall"))

(* ------------------------------------------------------------------ *)
(* batch_zipf: the batch schedulers on one Zipf trace. *)

let batch_zipf =
  let setup sz ~seed ~dir:_ tr =
    let n = sz.batch_n in
    let seq =
      Span.with_span tr "workload.gen" (fun () ->
          Workload.zipf ~seed ~alpha:0.9 ~n ~num_blocks:(n / 64))
    in
    let single = Workload.single_instance ~k:64 ~fetch_time:8 seq in
    let striped =
      Workload.parallel_instance ~k:64 ~fetch_time:8 ~num_disks:4
        ~layout:(fun ~num_blocks ~num_disks -> Workload.striped_layout ~num_blocks ~num_disks)
        seq
    in
    let d0 = Bounds.delay_opt_d ~f:8 in
    let schedulers =
      [ ("aggressive", single, Aggressive.schedule);
        ("conservative", single, Conservative.schedule);
        ("delay", single, Delay.schedule ~d:d0);
        ("parallel_greedy", striped, Parallel_greedy.aggressive_schedule) ]
    in
    let run_pass tr _ =
      let ops = new_ops () and buf = Buffer.create 512 in
      let stall = ref 0 and replays = ref 0 in
      List.iter
        (fun (name, inst, schedule) ->
           let span = name ^ ".schedule" in
           match op ops span (fun () -> Ok (Span.with_span tr span (fun () -> schedule inst))) with
           | None -> ()
           | Some sched -> (
               match replay tr ops buf name inst sched with
               | None -> ()
               | Some st ->
                 stall := !stall + st.Simulate.stall_time;
                 incr replays))
        schedulers;
      finish_pass ~requests:n ~stall:!stall ~stall_requests:(!replays * n) buf ops []
    in
    let layers pass spans =
      span_costs ~n spans
        [ ("aggressive.schedule", "aggressive.schedule_");
          ("conservative.schedule", "conservative.schedule_");
          ("delay.schedule", "delay.schedule_");
          ("parallel_greedy.schedule", "parallel_greedy.schedule_") ]
      (* four replays per pass: cost per replayed request *)
      @ span_costs ~n:(Stdlib.max 1 pass.stall_requests) spans [ ("simulate.run", "simulate.run_") ]
    in
    let probe tr =
      let build = Span.with_span tr "next_ref.build" (fun () -> Next_ref.of_instance single) in
      ignore (Sys.opaque_identity build);
      (* The driver's counters are exported only through telemetry, so
         one extra Aggressive run with telemetry on gives them, next to
         an untraced twin for the overhead ratio. *)
      let timed f =
        let t0 = Span.now_ns () in
        ignore (Sys.opaque_identity (f ()));
        Span.now_ns () - t0
      in
      let off_ns = timed (fun () -> Aggressive.schedule single) in
      Telemetry.reset ();
      Telemetry.set_enabled true;
      let on_ns =
        Fun.protect
          ~finally:(fun () -> Telemetry.set_enabled false)
          (fun () -> timed (fun () -> Aggressive.schedule single))
      in
      let counter name =
        match Telemetry.find name with Some (Telemetry.Counter c) -> c | _ -> 0
      in
      let elapsed = n + counter "driver.stall_units" in
      span_costs ~n (Span.total tr) [ ("next_ref.build", "next_ref.build_") ]
      @ [ ("driver.heap_stale_pop_ratio",
         ratio (counter "driver.heap_stale_pops") (counter "driver.heap_pushes"));
        ("driver.clock_skip_ratio", ratio (counter "driver.clock_units_skipped") elapsed);
        ("driver.frontier_clamps_per_req", ratio (counter "driver.frontier_clamps") n);
        ("telemetry.overhead_ratio", ratio on_ns off_ns) ]
    in
    { cycle = 1; run_pass; layers; probe }
  in
  { name = "batch_zipf"; setup }

(* ------------------------------------------------------------------ *)
(* replay_faults: the three executors on a schedule where every request
   misses. *)

let replay_faults =
  let setup sz ~seed ~dir:_ tr =
    let n = sz.replay_n in
    let seq = Span.with_span tr "workload.gen" (fun () -> Workload.sequential_scan ~n ~num_blocks:n) in
    let inst = Workload.single_instance ~k:64 ~fetch_time:8 seq in
    let sched = Span.with_span tr "aggressive.schedule" (fun () -> Aggressive.schedule inst) in
    let faults =
      Faults.make ~seed ~jitter_prob:0.1 ~max_jitter:3 ~fail_prob:0.01
        ~retry:{ Faults.backoff = Faults.Fixed 1; max_attempts = 5 } ()
    in
    let latency =
      Faults.make ~seed ~latency:(Faults.Pareto { xm = 6; alpha = 2.0; cap = 32 }) ()
    in
    let run_pass tr _ =
      let ops = new_ops () and buf = Buffer.create 512 in
      let stall = ref 0 and runs = ref 0 and counts = ref [] in
      let add st =
        stall := !stall + st.Simulate.stall_time;
        incr runs
      in
      Option.iter add (replay tr ops buf "plain" inst sched);
      Option.iter
        (fun (st, report) ->
           add st;
           counts :=
             ("faults.retries_per_fetch", ratio report.Faults.retries st.Simulate.fetches_started)
             :: !counts)
        (op ops "simulate.run_faulty" (fun () ->
             match
               Span.with_span tr "simulate.run_faulty" (fun () ->
                   Simulate.run_faulty ~faults inst sched)
             with
             | Error e -> Error (sim_error e)
             | Ok (st, report) ->
               digest_stats buf "faulty" st;
               Printf.bprintf buf "retries=%d failures=%d fault_stall=%d\n" report.Faults.retries
                 report.Faults.transient_failures report.Faults.fault_stall;
               Result.map
                 (fun () -> (st, report))
                 (check (st.Simulate.elapsed_time = n + st.Simulate.stall_time)
                    "elapsed <> n + stall")));
      Option.iter
        (fun (d : Delayed.stats) ->
           add d.Delayed.base;
           counts :=
             ("delayed.hit_ratio", ratio d.Delayed.delayed_hits n)
             :: ("delayed.max_queue_depth", float_of_int d.Delayed.max_queue_depth)
             :: !counts)
        (op ops "delayed.run" (fun () ->
             match
               Span.with_span tr "delayed.run" (fun () ->
                   Delayed.run ~window:16 ~faults:latency inst sched)
             with
             | Error e -> Error (sim_error e)
             | Ok d ->
               digest_stats buf "delayed" d.Delayed.base;
               Printf.bprintf buf "delayed_hits=%d wait=%d depth=%d\n" d.Delayed.delayed_hits
                 d.Delayed.delayed_wait d.Delayed.max_queue_depth;
               Result.map
                 (fun () -> d)
                 (check
                    (d.Delayed.base.Simulate.elapsed_time
                     = n - d.Delayed.delayed_hits + d.Delayed.base.Simulate.stall_time)
                    "elapsed <> n - delayed hits + stall")));
      finish_pass ~requests:n ~stall:!stall ~stall_requests:(!runs * n) buf ops !counts
    in
    let layers pass spans =
      pass.counts
      @ span_costs ~n spans
          [ ("simulate.run", "simulate.run_"); ("simulate.run_faulty", "simulate.run_faulty_");
            ("delayed.run", "delayed.run_") ]
    in
    { cycle = 1; run_pass; layers; probe = (fun _ -> []) }
  in
  { name = "replay_faults"; setup }

(* ------------------------------------------------------------------ *)
(* stream_lba: the streaming engine fed from a trace file with
   LBA-like ids. *)

(* Spread dense block ids over [0, ids) the way logical block addresses
   are spread: order-preserving, with a seeded offset inside each
   block's slot.  The trace opens with one request to the top of the
   range, a metadata-style access at the end of the device, so the
   engine sizes its id-indexed state once, at the start, instead of
   doubling it as the working set slides up; otherwise the peak heap
   would hinge on when the collector frees each outgrown copy. *)
let lba_ids ~seed ~blocks ~ids seq =
  let slot = Stdlib.max 1 (ids / blocks) in
  Array.append [| ids - 1 |]
    (Array.map (fun b -> (b * slot) + (Hashtbl.hash (seed, b) mod slot)) seq)

(* Written directly in the Trace_io text format, 1024 ids per [seq]
   line.  [Trace_io.save_instance] is not used: it builds an [Instance]
   sized by the largest id, and writes an [init] line its own reader
   rejects when the initial cache is empty (see README.md). *)
let write_trace path ~k ~fetch_time seq =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
       Printf.fprintf oc "# perfbench stream_lba trace\nk %d\nf %d\n" k fetch_time;
       let buf = Buffer.create 8192 in
       Array.iteri
         (fun i b ->
            if i mod 1024 = 0 then begin
              if i > 0 then Buffer.add_char buf '\n';
              Buffer.output_buffer oc buf;
              Buffer.clear buf;
              Buffer.add_string buf "seq"
            end;
            Buffer.add_char buf ' ';
            Buffer.add_string buf (string_of_int b))
         seq;
       Buffer.add_char buf '\n';
       Buffer.output_buffer oc buf)

let stream_policies = [ ("aggressive", Prefetcher.aggressive); ("markov", Prefetcher.markov) ]

let stream_lba =
  let setup sz ~seed ~dir tr =
    let n = sz.stream_n in
    let blocks = 65_536 in
    let seq =
      Span.with_span tr "workload.gen" (fun () ->
          Workload.phase_shift ~seed ~n:(n - 1) ~num_blocks:blocks
            ~phase_len:(Stdlib.max 1 (n / 200)) ~working_set:512
          |> lba_ids ~seed ~blocks ~ids:sz.stream_ids)
    in
    let path = Filename.concat dir (Printf.sprintf "stream_lba-seed%d.trace" seed) in
    Span.with_span tr "trace.write" (fun () -> write_trace path ~k:64 ~fetch_time:8 seq);
    (* The stream reads its requests through the trace reader; in a
       traced pass the reader's pulls are timed one by one and recorded
       as one aggregate child of the stream span.  Each run starts from a
       collected heap, as in a fresh process: the engine's id-sized
       arrays of the previous run would otherwise still be on the heap,
       and when the collector frees them varies from run to run. *)
    let run_stream tr policy =
      Gc.full_major ();
      Trace_io.with_reader path (fun r ->
          let h = Trace_io.header r in
          let src = Stream.of_reader r in
          let src, record =
            if not tr.Span.on then (src, ignore)
            else begin
              let ns = ref 0 and words = ref 0. in
              ( Stream.source ~name:src.Stream.name (fun () ->
                    let t0 = Span.now_ns () and w0 = Gc.minor_words () in
                    let v = src.Stream.pull () in
                    ns := !ns + (Span.now_ns () - t0);
                    words := !words +. (Gc.minor_words () -. w0);
                    v),
                fun () -> Span.record_aggregate tr "trace_io.pull" ~ns:!ns ~words:!words )
            end
          in
          let o =
            Stream.run ~k:h.Trace_io.cache_size ~fetch_time:h.Trace_io.fetch_time ~window:64 src
              (policy ())
          in
          record ();
          o)
    in
    let run_pass tr _ =
      let ops = new_ops () and buf = Buffer.create 512 in
      let stall = ref 0 and runs = ref 0 and counts = ref [] in
      List.iter
        (fun (name, policy) ->
           let span = "stream." ^ name in
           match
             op ops span (fun () ->
                 let o = Span.with_span tr span (fun () -> run_stream tr policy) in
                 Printf.bprintf buf "%s stall=%d elapsed=%d served=%d fetches=%d demand=%d\n" name
                   o.Stream.stall_time o.Stream.elapsed_time o.Stream.served o.Stream.fetches
                   o.Stream.demand_fetches;
                 Result.map
                   (fun () -> o)
                   (Result.bind (check (o.Stream.served = n) "served <> n") (fun () ->
                        check (o.Stream.elapsed_time = n + o.Stream.stall_time)
                          "elapsed <> n + stall")))
           with
           | None -> ()
           | Some o ->
             stall := !stall + o.Stream.stall_time;
             incr runs;
             counts :=
               (span ^ "_demand_fetch_ratio", ratio o.Stream.demand_fetches o.Stream.fetches)
               :: (span ^ "_refills_per_req", ratio o.Stream.refills n)
               :: !counts)
        stream_policies;
      finish_pass ~requests:n ~stall:!stall ~stall_requests:(!runs * n) buf ops !counts
    in
    let layers pass spans =
      let refills =
        List.fold_left
          (fun acc (name, v) ->
             if Filename.check_suffix name "_refills_per_req" then acc +. v else acc)
          0. pass.counts
      in
      List.filter (fun (name, _) -> not (Filename.check_suffix name "_refills_per_req")) pass.counts
      @ [ ("stream.refills_per_req", refills /. float_of_int (List.length stream_policies)) ]
      @ span_costs ~n spans
          [ ("stream.aggressive", "stream.aggressive_"); ("stream.markov", "stream.markov_") ]
    in
    let probe tr =
      (* The reader alone, then Win_ref alone at the stream's window. *)
      let ids = Array.make n 0 in
      let read =
        Span.with_span tr "trace_io.read" (fun () ->
            Trace_io.with_reader path (fun r ->
                let rec go i =
                  match Trace_io.read_request r with
                  | None -> i
                  | Some b ->
                    if i < n then ids.(i) <- b;
                    go (i + 1)
                in
                go 0))
      in
      let window = 64 in
      Span.with_span tr "win_ref.pass" (fun () ->
          let w = Win_ref.create () in
          for i = 0 to n - 1 do
            while Win_ref.filled w < Stdlib.min n (i + window) do
              Win_ref.push w ids.(Win_ref.filled w)
            done;
            ignore (Sys.opaque_identity (Win_ref.next_at_or_after w ids.(i) ~from:(i + 1)));
            Win_ref.drop_below w i
          done);
      (* Heap rise across one stream run, from a freshly collected heap. *)
      Gc.full_major ();
      let before = (Gc.quick_stat ()).Gc.heap_words in
      ignore (Sys.opaque_identity (run_stream Span.off Prefetcher.aggressive));
      let after = (Gc.quick_stat ()).Gc.heap_words in
      let read_ns, read_words = per_req ~n (Span.total tr "trace_io.read") in
      let win_ns, win_words = per_req ~n (Span.total tr "win_ref.pass") in
      if read <> n then failwith (Printf.sprintf "trace_io.read: %d requests, expected %d" read n);
      [ ("trace_io.read_ns_per_req", read_ns); ("trace_io.read_words_per_req", read_words);
        ("win_ref.ns_per_req", win_ns); ("win_ref.words_per_req", win_words);
        ("stream.heap_mb", float_of_int (after - before) *. float_of_int (Sys.word_size / 8) /. 1048576.) ]
    in
    { cycle = 1; run_pass; layers; probe }
  in
  { name = "stream_lba"; setup }

(* ------------------------------------------------------------------ *)
(* lp_rounding: the synchronized LP, the revised simplex and rounding. *)

let lp_rounding =
  let setup sz ~seed ~dir:_ tr =
    let insts =
      Span.with_span tr "workload.gen" (fun () ->
          Array.init sz.lp_instances (fun i ->
              Workload.uniform ~seed:((seed * 1009) + i) ~n:sz.lp_n ~num_blocks:sz.lp_blocks
              |> Workload.parallel_instance ~k:4 ~fetch_time:4 ~num_disks:2
                   ~layout:(fun ~num_blocks ~num_disks ->
                       Workload.striped_layout ~num_blocks ~num_disks)))
    in
    (* One pass is one [Rounding.solve] call, so the pass time is the
       solve time; passes cycle through the instances. *)
    let run_pass tr i =
      let inst = insts.(i mod sz.lp_instances) in
      let ops = new_ops () and buf = Buffer.create 256 in
      let revised = ref None and lp_solves = ref 0 in
      (* Traced: a solver wrapper splits the call into the LP build (up
         to the solver's entry), the revised solve, and rounding's own
         time; the simplex counters of the revised solve are kept apart
         from those of rounding's own small exact solves. *)
      let solve () =
        if not tr.Span.on then Rounding.solve inst
        else begin
          let t0 = Span.now_ns () and w0 = Gc.minor_words () in
          let stats0 = Simplex.stats_snapshot () in
          let solver p =
            Span.record tr "sync_lp.build" ~start_ns:t0 ~stop_ns:(Span.now_ns ())
              ~words:(Gc.minor_words () -. w0);
            let s0 = Simplex.stats_snapshot () in
            let r = Span.with_span tr "revised.solve" (fun () -> Revised.solve_lp p) in
            revised := Some (Simplex.stats_since s0);
            r
          in
          let r = Rounding.solve ~solver inst in
          lp_solves := (Simplex.stats_since stats0).Simplex.float_solves;
          r
        end
      in
      let result =
        op ops "rounding.solve" (fun () ->
            let r = Span.with_span tr "rounding.solve" solve in
            Printf.bprintf buf "value=%s stall=%d candidates=%d fallback=%b\n"
              (Rat.to_string r.Rounding.lp_value) r.Rounding.stats.Simulate.stall_time
              r.Rounding.candidates_tried r.Rounding.used_fallback;
            match
              Simulate.run ~extra_slots:r.Rounding.extra_slots_allowed inst r.Rounding.schedule
            with
            | Error e -> Error (sim_error e)
            | Ok st ->
              Result.map
                (fun () -> r)
                (check
                   (st.Simulate.stall_time = r.Rounding.stats.Simulate.stall_time
                    && r.Rounding.extra_slots_allowed = 2 * (inst.Instance.num_disks - 1))
                   "rounded schedule not executor-valid within 2(D-1) extra slots"))
      in
      let stall, solved, counts =
        match result with
        | None -> (0, 0, [])
        | Some r ->
          ( r.Rounding.stats.Simulate.stall_time,
            1,
            [ ("rounding.candidates_tried", float_of_int r.Rounding.candidates_tried);
              ("rounding.used_fallback", if r.Rounding.used_fallback then 1. else 0.) ] )
      in
      let counts =
        match !revised with
        | None -> counts
        | Some s ->
          let pivots = s.Simplex.pivots in
          counts
          @ [ ("revised.pivots", float_of_int pivots);
              ("revised.degenerate_ratio", ratio s.Simplex.degenerate_pivots pivots);
              ("revised.refactorizations", float_of_int s.Simplex.refactorizations);
              ("revised.certified_ratio", ratio s.Simplex.certified s.Simplex.float_solves);
              ("revised.warm_accept_ratio",
               ratio s.Simplex.warm_accepts (s.Simplex.warm_accepts + s.Simplex.warm_rejects));
              ("rounding.lp_solves", float_of_int (!lp_solves - s.Simplex.float_solves)) ]
      in
      finish_pass ~requests:sz.lp_n ~stall ~stall_requests:(solved * sz.lp_n) buf ops counts
    in
    let layers pass spans =
      let seconds name = float_of_int (fst (spans name)) /. 1e9 in
      pass.counts
      @ [ ("sync_lp.build_s", seconds "sync_lp.build");
          ("revised.solve_s", seconds "revised.solve");
          ("rounding.self_s", seconds "rounding.solve") ]
    in
    { cycle = sz.lp_instances; run_pass; layers; probe = (fun _ -> []) }
  in
  { name = "lp_rounding"; setup }

let all = [ batch_zipf; stream_lba; replay_faults; lp_rounding ]
let find name = List.find_opt (fun w -> w.name = name) all
