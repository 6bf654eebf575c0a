(* Reference executor/validator for prefetching/caching schedules.

   This is the ground truth of the reproduction: every algorithm's output
   and every LP rounding is fed through [run], which either rejects the
   schedule with a reason or reports its exact stall time, elapsed time and
   peak cache occupancy under the model of Section 1 of the paper.

   Timeline semantics (time advances in whole units):
   - at instant [t]: fetches completing at [t] deposit their block in cache;
     then fetches whose start time is [t] begin (performing their eviction);
   - during [t, t+1): if the next unserved request's block is in cache it is
     served (cursor advances), otherwise the unit is processor stall time.
   - a fetch anchored at cursor [c] with delay [d] starts at
     [first_time_cursor_reached(c) + d].

   Stall benefits all in-flight fetches simultaneously, which is exactly the
   parallel-disk behaviour described in the paper's two-disk example.

   Beyond validation, the executor is the system's primary telemetry
   source.  Per-disk busy time is always tracked (charged per fetch start,
   not per simulated unit, so the hot loop is unchanged).  When
   [attribution] is requested (or the global telemetry registry is
   enabled) each stall unit is additionally *charged to the fetch that
   caused it*: the fetch supplying the block the processor is waiting on.
   If that fetch is already in flight the unit is an involuntary stall
   (the disk simply has not finished); if it is still armed - scheduled
   but deliberately started later - the unit is a voluntary-delay stall,
   the algorithm's choice.  For every accepted schedule the charges
   partition the stall: sum over fetches of (involuntary + voluntary)
   equals [stall_time] exactly; the delayed-hits literature calls this
   stall-time attribution and it is the lens the ROADMAP's latency work
   needs.

   [run_faulty] executes the same schedule under a {!Faults} plan: fetch
   attempts may be slowed (duration F + d), fail transiently (retried
   under the plan's backoff policy, bounded attempts) or be interrupted
   by timed whole-disk outages.  Under a non-empty plan the strict
   plan-consistency rejections are relaxed into degraded-mode behaviour -
   a start on a busy or down disk waits its turn instead of rejecting,
   an inapplicable fetch (block already resident, eviction victim gone
   and no free slot) is dropped and counted - because the divergence is
   the fault's doing, not the schedule's.  With [Faults.none] the code
   path is the fault-free one and the returned stats are identical to
   [run]'s.

   {!Delayed.run} is the same loop with delayed-hit parking switched on
   by its [window] and a second degraded-mode start policy (defer, never
   drop); see [policy] below. *)

type event =
  | Serve of { time : int; index : int; block : Instance.block }
  | Stall of { time : int }
  | Fetch_start of { time : int; fetch : Fetch_op.t }
  | Fetch_complete of { time : int; fetch : Fetch_op.t }

type fetch_stall = {
  fetch : Fetch_op.t;
  fetch_index : int;  (* position in the submitted schedule *)
  involuntary_stall : int;  (* units stalled while this fetch was in flight *)
  voluntary_stall : int;  (* units stalled while this fetch was armed but delayed *)
}

type stats = {
  stall_time : int;
  elapsed_time : int;
  fetches_started : int;
  fetches_completed : int;
  peak_occupancy : int;  (* max over time of |cache| + #in-flight fetches *)
  events : event list;  (* chronological *)
  disk_busy : int array;  (* per-disk busy time units (always computed) *)
  stall_by_fetch : fetch_stall list;  (* schedule order; empty unless [attribution] *)
  occupancy : (int * int) list;  (* (time, |cache| + in-flight) at change points;
                                    empty unless [attribution] *)
}

type error = {
  reason : string;
  at_time : int;
}

let pp_event fmt = function
  | Serve { time; index; block } -> Format.fprintf fmt "t=%-3d serve r%d (b%d)" time (index + 1) block
  | Stall { time } -> Format.fprintf fmt "t=%-3d stall" time
  | Fetch_start { time; fetch } -> Format.fprintf fmt "t=%-3d start %a" time Fetch_op.pp fetch
  | Fetch_complete { time; fetch } -> Format.fprintf fmt "t=%-3d done  %a" time Fetch_op.pp fetch

let pp_stats fmt s =
  Format.fprintf fmt "stall=%d elapsed=%d fetches=%d peak_occupancy=%d" s.stall_time
    s.elapsed_time s.fetches_completed s.peak_occupancy

let pp_fetch_stall fmt a =
  Format.fprintf fmt "%a: involuntary=%d voluntary=%d" Fetch_op.pp a.fetch a.involuntary_stall
    a.voluntary_stall

exception Reject of error

let rejectf at_time fmt = Printf.ksprintf (fun reason -> raise (Reject { reason; at_time })) fmt

(* Typed channel for "a solver or executor hit a state its own model says
   is impossible" - distinct from [Invalid_schedule] (a bad schedule) and
   from user errors.  One exception instead of per-module [failwith]s, so
   the CLI and Measure can catch internal bugs uniformly without also
   swallowing every [Failure] in sight. *)
exception Internal_error of { component : string; reason : string }

let () =
  Printexc.register_printer (function
    | Internal_error { component; reason } ->
      Some (Printf.sprintf "%s: internal error: %s" component reason)
    | _ -> None)

let internal_error ~component fmt =
  Printf.ksprintf (fun reason -> raise (Internal_error { component; reason })) fmt

(* Registry handles (registration is once-per-name and happens eagerly;
   all mutations below are gated on [Telemetry.enabled]). *)
let m_runs = Telemetry.counter "simulate.runs"
let m_rejected = Telemetry.counter "simulate.rejected"
let m_stall_units = Telemetry.counter "simulate.stall_units"
let m_stall_involuntary = Telemetry.counter "simulate.stall.involuntary"
let m_stall_voluntary = Telemetry.counter "simulate.stall.voluntary"
let m_fetches = Telemetry.counter "simulate.fetches_completed"
let m_stall_hist = Telemetry.histogram "simulate.stall_time"
let m_peak_hist = Telemetry.histogram "simulate.peak_occupancy"
let m_util_hist = Telemetry.histogram "simulate.disk_utilization"

(* Fault-injection counters, bumped only by [run_faulty]. *)
let m_faulty_runs = Telemetry.counter "simulate.faulty_runs"
let m_f_jitter = Telemetry.counter "faults.injected_jitter"
let m_f_failures = Telemetry.counter "faults.transient_failures"
let m_f_retries = Telemetry.counter "faults.retries"
let m_f_abandoned = Telemetry.counter "faults.abandoned"
let m_f_deferred = Telemetry.counter "faults.deferred_starts"
let m_f_interrupts = Telemetry.counter "faults.outage_interrupts"
let m_f_dropped = Telemetry.counter "faults.dropped_fetches"
let m_f_stall = Telemetry.counter "faults.stall_units"

let record_fault_telemetry (r : Faults.report) =
  if Telemetry.enabled () then begin
    Telemetry.incr m_faulty_runs;
    Telemetry.add m_f_jitter r.Faults.injected_jitter;
    Telemetry.add m_f_failures r.Faults.transient_failures;
    Telemetry.add m_f_retries r.Faults.retries;
    Telemetry.add m_f_abandoned r.Faults.abandoned;
    Telemetry.add m_f_deferred r.Faults.deferred_starts;
    Telemetry.add m_f_interrupts r.Faults.outage_interrupts;
    Telemetry.add m_f_dropped r.Faults.dropped_fetches;
    Telemetry.add m_f_stall r.Faults.fault_stall
  end

(* Degraded-mode start policy.  Outside strict mode - under a non-empty
   fault plan, or with parking switched on - a start the state does not
   admit is absorbed instead of rejected, in one of two ways picked by the
   public entry point:
   - [Drop_per_disk] ([run_faulty]): due starts and due retries queue FIFO
     per disk; an inapplicable first attempt (block resident or in flight,
     victim gone and no free slot) or a stale retry is dropped.
   - [Defer_global] ({!Delayed.run}): due starts wait in one global FIFO in
     armed order until their disk is idle, their block absent and their
     eviction performable; nothing is dropped, so under degenerate timing
     the start order is the strict executor's.
   The policy also selects the entry point's horizon formula, deadlock
   wording and [Internal_error] component. *)
type policy = Drop_per_disk | Defer_global

(* Per-op degraded-mode flag bits. *)
let failing = 1  (* the current attempt will fail *)
let slowed = 2  (* the current attempt runs past F *)
let deferred = 4  (* the op once waited for its turn *)
let redraw = 8  (* an outage interrupted the attempt: relaunch redraws it *)
let has flags i flag = flags.(i) land flag <> 0
let set flags i flag on = flags.(i) <- (if on then flags.(i) lor flag else flags.(i) land lnot flag)

(* [extra_slots] extends capacity beyond k (the paper's parallel algorithm
   is allowed 2(D-1) extra locations).  [record_events] controls whether the
   full event trace is accumulated (examples want it; sweeps do not).
   [attribution] additionally charges every stall unit to a fetch and
   samples the occupancy timeline; it is forced on while the telemetry
   registry is enabled so metrics dumps always carry the attribution.

   [exec] is the single event loop behind [run], [run_faulty] and
   {!Delayed.run}.  Fault-mode behaviour is gated on [faulty] and parking
   on [window > 0], so with [Faults.none] and [window = 0] the executed
   path is exactly the strict fault-free executor.  [on_park] sees every
   delayed hit. *)
let exec ~policy ~extra_slots ~record_events ~attribution ~window ~(faults : Faults.t) ~on_park
    (inst : Instance.t) (schedule : Fetch_op.schedule) : (stats * Faults.report, error) Result.t =
  let n = Instance.length inst in
  let capacity = inst.Instance.cache_size + extra_slots in
  let num_blocks = Instance.num_blocks inst in
  let num_disks = inst.Instance.num_disks in
  let fetch_time = inst.Instance.fetch_time in
  let faulty = not (Faults.is_none faults) in
  let has_outages = faults.Faults.outages <> [] in
  (* Strict mode reproduces the fault-free executor's rejections; a fault
     plan or parking relaxes them into the degraded-mode [policy], because
     the divergence from the plan is then the faults' or the parking's
     doing, not the schedule's. *)
  let strict = (not faulty) && window = 0 in
  let attribution = attribution || faulty || Telemetry.enabled () in
  let component = match policy with Drop_per_disk -> "simulate" | Defer_global -> "delayed" in
  (* Static validation of fetch operations (shared wording across
     executors lives in [Fetch_op.validate]). *)
  let validate f =
    match Fetch_op.validate inst f with Ok () -> () | Error reason -> rejectf 0 "%s" reason
  in
  try
    List.iter validate schedule;
    (* Fetch operations are tracked by their index in the submitted
       schedule so stall charges can name the exact operation. *)
    let ops = Array.of_list schedule in
    let nops = Array.length ops in
    (* State. *)
    let in_cache = Array.make num_blocks false in
    List.iter (fun b -> in_cache.(b) <- true) inst.Instance.initial_cache;
    let cache_count = ref (List.length inst.Instance.initial_cache) in
    (* in_flight_op.(d) = index of the op in flight on disk d, or -1;
       in_flight_end.(d) = its completion instant. *)
    let in_flight_op = Array.make num_disks (-1) in
    let in_flight_end = Array.make num_disks 0 in
    let in_flight_count = ref 0 in
    (* block_in_flight.(b) = index of the op fetching b, or -1: every start
       path refuses a block already in flight, so there is at most one. *)
    let block_in_flight = Array.make num_blocks (-1) in
    let disk_busy = Array.make num_disks 0 in
    (* Cache-slot reservations: a fetch holds its slot from first start
       until final success or abandonment, across retries.  Fault-free,
       this equals [in_flight_count] at every capacity check. *)
    let reserved = ref 0 in
    (* Stall charges, indexed like [ops]. *)
    let involuntary = Array.make (if attribution then nops else 0) 0 in
    let voluntary = Array.make (if attribution then nops else 0) 0 in
    (* Degraded-mode per-op state (empty arrays in strict mode): the
       current attempt number, its start instant, and one word of flag
       bits ([failing], [slowed], [deferred], [redraw]).  Outage-interrupted ops
       relaunch with the SAME attempt number (an interrupt does not
       consume an attempt) and keep their reservation and eviction from
       the original start. *)
    let fsz = if strict then 0 else nops in
    let attempts = Array.make fsz 0 in
    let cur_start = Array.make fsz 0 in
    let flags = Array.make fsz 0 in
    (* Due ops (first attempts and due retries) waiting to start: one FIFO
       per disk under [Drop_per_disk], one global FIFO under
       [Defer_global]. *)
    let nqueues =
      if strict then 0 else match policy with Drop_per_disk -> num_disks | Defer_global -> 1
    in
    let queues = Array.init nqueues (fun _ -> Queue.create ()) in
    let queue_of i =
      match policy with Drop_per_disk -> queues.(ops.(i).Fetch_op.disk) | Defer_global -> queues.(0)
    in
    let queued = ref 0 in
    (* Failed attempts in backoff: (ready_time, op_index), sorted. *)
    let retryq = ref [] in
    let retryq_add ready i =
      let rec ins = function
        | [] -> [ (ready, i) ]
        | ((r', i') as hd) :: tl ->
          if (r', i') <= (ready, i) then hd :: ins tl else (ready, i) :: hd :: tl
      in
      retryq := ins !retryq
    in
    (* Parked requests per in-flight op, newest first (empty arrays unless
       parking is on). *)
    let psz = if window > 0 then nops else 0 in
    let waiters = Array.make psz [] in
    let waiter_count = Array.make psz 0 in
    let parked_count = ref 0 in
    (* Fault report accumulators. *)
    let f_jitter = ref 0 and f_failures = ref 0 and f_retries = ref 0 in
    let f_abandoned = ref 0 and f_deferred = ref 0 and f_interrupts = ref 0 in
    let f_dropped = ref 0 and f_skipped_evict = ref 0 and f_stall = ref 0 in
    let fevents = ref [] in
    let fevent e = fevents := e :: !fevents in
    (* Pending fetches grouped by anchor cursor, held as bare op indexes
       (immediate ints) so the bookkeeping allocates exactly what the
       un-instrumented executor did; [ops.(i)] recovers the fetch. *)
    let by_cursor = Array.make (n + 1) [] in
    Array.iteri
      (fun i f -> by_cursor.(f.Fetch_op.at_cursor) <- i :: by_cursor.(f.Fetch_op.at_cursor))
      ops;
    let compare_pending i1 i2 =
      match Fetch_op.compare_start ops.(i1) ops.(i2) with 0 -> Int.compare i1 i2 | c -> c
    in
    for c = 0 to n do
      by_cursor.(c) <- List.sort compare_pending by_cursor.(c)
    done;
    (* Fetches whose absolute start time is known (anchor reached):
       (start_time, op_index), kept sorted by start time.  The merge and
       the start-time listing are named functions so [arm] - called once
       per serve - allocates no fresh closures. *)
    let armed = ref [] in
    let rec merge_armed l1 l2 =
      match (l1, l2) with
      | [], l | l, [] -> l
      | (((t1, i1) as h1) :: r1), (((t2, i2) as h2) :: r2) ->
        let c = match Int.compare t1 t2 with 0 -> compare_pending i1 i2 | x -> x in
        if c <= 0 then h1 :: merge_armed r1 l2 else h2 :: merge_armed l1 r2
    in
    let rec start_times time = function
      | [] -> []
      | i :: tl -> (time + ops.(i).Fetch_op.delay, i) :: start_times time tl
    in
    let arm time c =
      match by_cursor.(c) with
      | [] -> ()
      | pending ->
        armed := merge_armed !armed (start_times time pending);
        by_cursor.(c) <- []
    in
    let events = ref [] in
    let push e = if record_events then events := e :: !events in
    let occupancy = ref [] in
    let last_occ = ref (-1) in
    let sample_occ t =
      if attribution then begin
        let occ = !cache_count + !in_flight_count in
        if occ <> !last_occ then begin
          occupancy := (t, occ) :: !occupancy;
          last_occ := occ
        end
      end
    in
    let stall = ref 0 in
    let started = ref 0 in
    let completed = ref 0 in
    let peak = ref !cache_count in
    let cursor = ref 0 in
    let t = ref 0 in
    (* Provenance events (opt-in, {!Event_log}): executor-side fetch
       issue/complete, delayed hits, plus stall intervals aggregated from
       unit stalls and attributed to the block the cursor is waiting on. *)
    let prov_stall_from = ref (-1) in
    let prov_issue (f : Fetch_op.t) =
      if Event_log.enabled () then
        Event_log.record
          (Event_log.Fetch_issue
             { time = !t; cursor = !cursor; block = f.Fetch_op.block; disk = f.Fetch_op.disk;
               evict = f.Fetch_op.evict })
    in
    let prov_complete ~disk (f : Fetch_op.t) =
      if Event_log.enabled () then
        Event_log.record (Event_log.Fetch_complete { time = !t; block = f.Fetch_op.block; disk })
    in
    let prov_serve b =
      (* [prov_stall_from] is only ever set while the log is enabled. *)
      if !prov_stall_from >= 0 then begin
        Event_log.record
          (Event_log.Stall_interval
             { from_time = !prov_stall_from; until_time = !t; cursor = !cursor; block = b });
        prov_stall_from := -1
      end
    in
    let prov_stall () =
      if Event_log.enabled () && !prov_stall_from < 0 then prov_stall_from := !t
    in
    arm 0 0;
    sample_occ 0;
    (* Deadlock guard: an upper bound on total time. *)
    let horizon =
      match policy with
      | Defer_global ->
        (* Every op costs at most one worst-case attempt plus its delay;
           parking adds no time. *)
        let worst = Faults.max_latency faults ~fetch_time + faults.Faults.max_jitter in
        n + List.fold_left (fun acc f -> acc + worst + f.Fetch_op.delay) 0 schedule + 16
      | Drop_per_disk ->
        (* Every fetch costs at most F (+delays); under faults, add the
           worst case of every retry, backoff wait and outage window (a
           generous but finite guard). *)
        let clean =
          n + List.fold_left (fun acc f -> acc + fetch_time + f.Fetch_op.delay) 0 schedule + 1
        in
        if not faulty then clean
        else begin
          let ma = faults.Faults.retry.Faults.max_attempts in
          let worst_attempt = Faults.max_latency faults ~fetch_time + faults.Faults.max_jitter in
          let backoff_total = ref 0 in
          for a = 1 to ma - 1 do
            backoff_total := !backoff_total + Faults.backoff_delay faults.Faults.retry ~attempt:a
          done;
          let outage_total =
            List.fold_left
              (fun acc (o : Faults.outage) -> acc + (o.Faults.until_time - o.Faults.from_time))
              0 faults.Faults.outages
          in
          let noutages = List.length faults.Faults.outages in
          clean + outage_total
          + (nops * (((ma + noutages) * worst_attempt) + !backoff_total))
          + 16
        end
    in
    (* Put op [i] in flight for [duration] units.  Disks never pause, so
       busy time is charged up front and the unfinished tail is refunded
       after the loop - no per-unit bookkeeping.  A first attempt reserves
       the slot for the incoming block and counts as a start; a retry
       keeps the reservation of its first attempt. *)
    let launch i ~duration ~first =
      let f = ops.(i) in
      let open Fetch_op in
      in_flight_op.(f.disk) <- i;
      in_flight_end.(f.disk) <- !t + duration;
      incr in_flight_count;
      block_in_flight.(f.block) <- i;
      disk_busy.(f.disk) <- disk_busy.(f.disk) + duration;
      if first then begin
        incr reserved;
        incr started
      end;
      push (Fetch_start { time = !t; fetch = f });
      prov_issue f
    in
    (* Degraded mode: draw attempt [attempt] of op [i] from the plan
       ([Faults.none] draws the fixed F) and return its duration. *)
    let draw_attempt i ~attempt =
      let f = ops.(i) in
      let open Fetch_op in
      let d = Faults.draw faults ~fetch_time ~disk:f.disk ~block:f.block ~attempt ~start:!t in
      attempts.(i) <- attempt;
      set flags i failing d.Faults.failed;
      set flags i slowed (d.Faults.duration > fetch_time);
      cur_start.(i) <- !t;
      if d.Faults.duration > fetch_time then begin
        f_jitter := !f_jitter + (d.Faults.duration - fetch_time);
        fevent
          (Faults.Slow
             { time = !t; disk = f.disk; block = f.block; extra = d.Faults.duration - fetch_time })
      end;
      d.Faults.duration
    in
    (* Degraded-mode first attempt of op [i], already found applicable:
       evict the victim if it is still resident (skip it otherwise). *)
    let start_first i =
      let f = ops.(i) in
      (match f.Fetch_op.evict with
       | Some b when in_cache.(b) ->
         in_cache.(b) <- false;
         decr cache_count
       | Some _ -> incr f_skipped_evict
       | None -> ());
      let duration = draw_attempt i ~attempt:1 in
      if !cache_count + !reserved + 1 > capacity then
        internal_error ~component "fetch of b%d started at time %d with cache capacity %d full"
          f.Fetch_op.block !t capacity;
      launch i ~duration ~first:true
    in
    (* [Drop_per_disk]: start one ready op on its idle, up disk, or drop
       it when it has become inapplicable. *)
    let fault_start i =
      let f = ops.(i) in
      let open Fetch_op in
      let arrived = in_cache.(f.block) || block_in_flight.(f.block) >= 0 in
      if attempts.(i) = 0 && not (has flags i redraw) then begin
        (* First attempt: plan validation in degraded mode - inapplicable
           fetches (block already there, victim gone and no free slot) are
           dropped and counted, not rejected. *)
        let room =
          (match f.evict with Some b -> in_cache.(b) | None -> false)
          || !cache_count + !reserved + 1 <= capacity
        in
        if arrived || not room then incr f_dropped else start_first i
      end
      else if arrived then begin
        (* The block arrived through another fetch while this one was in
           backoff: release the reservation and drop the retry. *)
        decr reserved;
        incr f_dropped
      end
      else begin
        (* Retry attempt (or same-attempt relaunch after an outage
           interrupt): the slot is still reserved and the eviction
           already happened on the first attempt. *)
        let was_redraw = has flags i redraw in
        let attempt = if was_redraw then max attempts.(i) 1 else attempts.(i) + 1 in
        set flags i redraw false;
        let duration = draw_attempt i ~attempt in
        if not was_redraw then begin
          incr f_retries;
          fevent (Faults.Retry { time = !t; disk = f.disk; block = f.block; attempt })
        end;
        launch i ~duration ~first:false
      end
    in
    (* [Defer_global]: a deferred op can start when its disk is idle, its
       block is not already resident or in flight, and its planned
       eviction is performable: a resident victim is evicted (net occupancy
       unchanged), a no-evict fetch needs a free slot.  Starting with the
       victim absent would skip the eviction and leak a cache slot for
       good, wedging later fetches - the victim, if absent, is still in
       flight or deferred and will land, so waiting is always productive. *)
    let startable i =
      let f = ops.(i) in
      let open Fetch_op in
      let evict_ready =
        match f.evict with Some v -> in_cache.(v) | None -> !cache_count + !reserved + 1 <= capacity
      in
      in_flight_op.(f.disk) < 0 && (not in_cache.(f.block)) && block_in_flight.(f.block) < 0
      && evict_ready
    in
    (* Strict starts: every armed op due now starts or the run rejects. *)
    let rec start_due () =
      match !armed with
      | (start_time, i) :: rest when start_time = !t ->
        armed := rest;
        let f = ops.(i) in
        let open Fetch_op in
        if in_flight_op.(f.disk) >= 0 then
          rejectf !t "disk %d already busy when fetch of b%d starts" f.disk f.block;
        if in_cache.(f.block) then rejectf !t "fetch of b%d but it is already in cache" f.block;
        if block_in_flight.(f.block) >= 0 then rejectf !t "fetch of b%d already in flight" f.block;
        (match f.evict with
         | Some b ->
           (* A block being fetched is not yet resident, so the residency
              check below would also fire - but the precise reason
              matters, and the dedicated check keeps the invariant
              independent of the deposit ordering above. *)
           if block_in_flight.(b) >= 0 then
             rejectf !t "eviction of b%d during its own in-flight fetch window" b;
           if not in_cache.(b) then rejectf !t "eviction of b%d which is not in cache" b;
           in_cache.(b) <- false;
           decr cache_count
         | None -> ());
        (* The started fetch reserves a slot for the incoming block. *)
        if !cache_count + !reserved + 1 > capacity then
          rejectf !t "cache capacity %d exceeded" capacity;
        launch i ~duration:fetch_time ~first:true;
        start_due ()
      | (start_time, i) :: _ when start_time < !t ->
        (* The armed list is sorted by start time and drained at every
           instant, so finding an overdue entry means the clock jumped past
           a scheduled start - an executor bug, not a bad plan. *)
        let f = ops.(i) in
        internal_error ~component "armed fetch of b%d on disk %d overdue: start time %d < clock %d"
          f.Fetch_op.block f.Fetch_op.disk start_time !t
      | _ -> ()
    in
    (* Degraded mode: due retries and due planned starts join the queues;
       a start that cannot go now waits instead of rejecting. *)
    let rec move_retries () =
      match !retryq with
      | (ready, i) :: rest when ready <= !t ->
        retryq := rest;
        Queue.add i (queue_of i);
        incr queued;
        move_retries ()
      | _ -> ()
    in
    let rec move_armed () =
      match !armed with
      | (start_time, i) :: rest when start_time <= !t ->
        armed := rest;
        Queue.add i (queue_of i);
        incr queued;
        move_armed ()
      | _ -> ()
    in
    let mark_deferred i =
      if not (has flags i deferred) then begin
        set flags i deferred true;
        incr f_deferred
      end
    in
    (* Degraded-mode starts at instant t (the strict counterpart is
       [start_due]). *)
    let start_degraded () =
      move_retries ();
      move_armed ();
      (match policy with
       | Drop_per_disk ->
         (* Each disk drains its FIFO while idle and up; a dropped op
            frees the disk for the next in line. *)
         for d = 0 to num_disks - 1 do
           let q = queues.(d) in
           while
             (not (Queue.is_empty q))
             && in_flight_op.(d) < 0
             && not (Faults.disk_down faults ~disk:d ~time:!t)
           do
             decr queued;
             fault_start (Queue.take q)
           done;
           (* Anything still queued was deferred by a busy or down disk. *)
           Queue.iter mark_deferred q
         done
       | Defer_global ->
         (* One pass over the global FIFO: start what fits, keep the
            rest (busy disk, or the block still resident / in flight
            from an earlier elongated fetch) in order. *)
         let q = queues.(0) in
         for _ = 1 to Queue.length q do
           let i = Queue.take q in
           if startable i then begin
             decr queued;
             start_first i
           end
           else begin
             mark_deferred i;
             Queue.add i q
           end
         done)
    in
    (* First queued op satisfying [p], FIFOs in order, then backoffs;
       -1 if none. *)
    let find_queued p =
      let found = ref (-1) in
      Array.iter (Queue.iter (fun i -> if !found < 0 && p i then found := i)) queues;
      if !found < 0 then (
        match List.find_opt (fun (_, i) -> p i) !retryq with
        | Some (_, i) -> found := i
        | None -> ());
      !found
    in
    (* In fault mode a unit stalled on an in-flight op is also the plan's
       doing when the op is on a repeat attempt, was deferred, or is
       running past F on a slowed attempt. *)
    let charge_involuntary i =
      involuntary.(i) <- involuntary.(i) + 1;
      if faulty
         && (attempts.(i) > 1 || has flags i deferred
             || (has flags i slowed && !t >= cur_start.(i) + fetch_time))
      then incr f_stall
    in
    (* A queued op - waiting for its disk or its state, or sitting out a
       backoff - is still "not started", so the partition books the unit
       as voluntary, but the delay is the degraded mode's doing. *)
    let charge_queued i =
      voluntary.(i) <- voluntary.(i) + 1;
      incr f_stall
    in
    (* Charge one stall unit awaiting block [b] (-1 in the tail drain of
       parked requests) to the fetch supplying it: in flight ->
       involuntary, armed but deliberately delayed -> voluntary, queued ->
       voluntary and fault stall. *)
    let charge_stall b =
      let flying = if b >= 0 then block_in_flight.(b) else -1 in
      if flying >= 0 then charge_involuntary flying
      else
        let supplies i = b >= 0 && ops.(i).Fetch_op.block = b in
        match List.find_opt (fun (_, i) -> supplies i) !armed with
        | Some (_, i) -> voluntary.(i) <- voluntary.(i) + 1
        | None ->
          let q = find_queued supplies in
          if q >= 0 then charge_queued q
          else begin
            (* Tail drain, or a doomed-to-reject path where no fetch of the
               needed block exists: charge the earliest-completing in-flight
               fetch, else the earliest armed one, else the first queued
               one, so the charge total stays exact. *)
            let best = ref (-1) and best_end = ref max_int in
            for d = 0 to num_disks - 1 do
              if in_flight_op.(d) >= 0 && in_flight_end.(d) < !best_end then begin
                best := in_flight_op.(d);
                best_end := in_flight_end.(d)
              end
            done;
            if !best >= 0 then charge_involuntary !best
            else
              match !armed with
              | (_, i) :: _ -> voluntary.(i) <- voluntary.(i) + 1
              | [] ->
                let q = find_queued (fun _ -> true) in
                if q >= 0 then charge_queued q
                else
                  (* A stall unit with nothing in flight, armed, or queued
                     means the plan ran dry while requests remain - the
                     deadlock check rejects before charging. *)
                  internal_error ~component
                    "stall at time %d awaiting b%d with no fetch in flight, armed, or queued" !t b
          end
    in
    (* Called when a stall unit awaits [b] with no fetch in flight or
       armed: the missing block arrives only through a queued op, if any. *)
    let check_deadlock b =
      if !queued = 0 && !retryq = [] then
        if faulty && policy = Drop_per_disk then
          rejectf !t "request r%d (b%d) missing and unrecoverable under faults" (!cursor + 1) b
        else
          rejectf !t "request r%d (b%d) missing with no fetch in flight or scheduled" (!cursor + 1)
            b
      else if policy = Defer_global then begin
        (* Deferred ops are the only hope left; the state can no longer
           change on its own (no completions coming, no future arms), so if
           none of them can start now, none ever will: wedged. *)
        let live = ref false in
        Queue.iter (fun i -> if (not !live) && startable i then live := true) queues.(0);
        if not !live then
          rejectf !t "request r%d (b%d) missing and unrecoverable (deferred fetches wedged)"
            (!cursor + 1) b
      end
    in
    (* Delayed hit: park the cursor request on the in-flight fetch of [b]
       and move on.  Parking takes no time: the loop goes round again at
       the same instant, whose completions are all done (every attempt
       lasts at least one unit) and which has no outages (parking plans
       have none), so only the start, serve and stall phases run again -
       the new cursor may arm zero-delay ops due right now.  Each park
       advances the cursor, so the instant ends. *)
    let park b =
      let i = block_in_flight.(b) in
      let disk = ops.(i).Fetch_op.disk in
      let ready_at = in_flight_end.(disk) in
      let depth = waiter_count.(i) + 1 in
      waiters.(i) <- !cursor :: waiters.(i);
      waiter_count.(i) <- depth;
      incr parked_count;
      prov_serve b;
      if Event_log.enabled () then
        Event_log.record
          (Event_log.Delayed_hit
             { time = !t; cursor = !cursor; block = b; disk; queue_depth = depth;
               residual = ready_at - !t });
      on_park ~req_index:!cursor ~block:b ~disk ~parked_at:!t ~ready_at ~queue_depth:depth;
      incr cursor;
      arm !t !cursor
    in
    while !cursor < n || !parked_count > 0 do
      if !t > horizon then rejectf !t "simulation exceeded time horizon (deadlock)";
      (* 0. Outage transitions. *)
      if has_outages then
        List.iter
          (fun (o : Faults.outage) ->
             if o.Faults.from_time = !t then
               fevent (Faults.Outage_begin { time = !t; disk = o.Faults.disk });
             if o.Faults.until_time = !t then
               fevent (Faults.Outage_end { time = !t; disk = o.Faults.disk }))
          faults.Faults.outages;
      (* 1. Completions at instant t; each completion releases its parked
         waiters (they consume no processor time). *)
      for d = 0 to num_disks - 1 do
        let i = in_flight_op.(d) in
        if i >= 0 && in_flight_end.(d) = !t then begin
          let f = ops.(i) in
          let b = f.Fetch_op.block in
          in_flight_op.(d) <- -1;
          decr in_flight_count;
          block_in_flight.(b) <- -1;
          if faulty && has flags i failing then begin
            (* Transient failure: the disk is freed, the block did not
               arrive; retry under the plan's policy or abandon. *)
            incr f_failures;
            fevent (Faults.Fail { time = !t; disk = d; block = b; attempt = attempts.(i) });
            if attempts.(i) < faults.Faults.retry.Faults.max_attempts then
              retryq_add (!t + Faults.backoff_delay faults.Faults.retry ~attempt:attempts.(i)) i
            else begin
              incr f_abandoned;
              decr reserved;
              fevent (Faults.Give_up { time = !t; disk = d; block = b; attempts = attempts.(i) })
            end
          end
          else begin
            decr reserved;
            if not in_cache.(b) then begin
              in_cache.(b) <- true;
              incr cache_count
            end;
            incr completed;
            push (Fetch_complete { time = !t; fetch = f });
            prov_complete ~disk:d f;
            if window > 0 && waiter_count.(i) > 0 then begin
              List.iter
                (fun req -> push (Serve { time = !t; index = req; block = b }))
                (List.rev waiters.(i));
              parked_count := !parked_count - waiter_count.(i);
              waiters.(i) <- [];
              waiter_count.(i) <- 0
            end
          end
        end
      done;
      (* 1b. Outage interrupts: an in-flight attempt on a disk that just
         went down is aborted and re-queued for when the disk comes back;
         the interrupt does not consume an attempt. *)
      if has_outages then
        for d = 0 to num_disks - 1 do
          let i = in_flight_op.(d) in
          if i >= 0 && Faults.disk_down faults ~disk:d ~time:!t then begin
            let b = ops.(i).Fetch_op.block in
            in_flight_op.(d) <- -1;
            decr in_flight_count;
            block_in_flight.(b) <- -1;
            disk_busy.(d) <- disk_busy.(d) - (in_flight_end.(d) - !t);
            incr f_interrupts;
            fevent (Faults.Interrupted { time = !t; disk = d; block = b });
            set flags i redraw true;  (* relaunch re-draws this attempt, not a new one *)
            retryq_add (Faults.next_up faults ~disk:d ~time:!t) i
          end
        done;
      (* 2. Starts at instant t. *)
      if strict then start_due () else start_degraded ();
      if !cache_count + !in_flight_count > !peak then peak := !cache_count + !in_flight_count;
      if attribution then sample_occ !t;
      (* 3. Serve, park or stall during [t, t+1).  Completions at this
         instant may have released the last parked request; the run is
         then over and no unit elapses. *)
      if !cursor < n || !parked_count > 0 then begin
        (* -1 in the tail drain: all requests issued, parked ones waiting
           on in-flight fetches. *)
        let b = if !cursor < n then inst.Instance.seq.(!cursor) else -1 in
        if b >= 0 && in_cache.(b) then begin
          prov_serve b;
          push (Serve { time = !t; index = !cursor; block = b });
          incr cursor;
          incr t;
          arm !t !cursor
        end
        else if b >= 0 && !parked_count < window && block_in_flight.(b) >= 0 then park b
        else begin
          (* Stall is legal while a fetch is in flight or an armed fetch
             will start later (a delayed start is a voluntary stall). *)
          if b >= 0 && !in_flight_count = 0 && !armed = [] then check_deadlock b;
          if attribution then charge_stall b;
          prov_stall ();
          push (Stall { time = !t });
          incr stall;
          incr t
        end
      end
    done;
    sample_occ !t;
    (* Refund busy time the in-flight fetches would spend past the end of
       the run (the clock stops when the last request is served). *)
    for d = 0 to num_disks - 1 do
      if in_flight_op.(d) >= 0 && in_flight_end.(d) > !t then
        disk_busy.(d) <- disk_busy.(d) - (in_flight_end.(d) - !t)
    done;
    (* Drain: any still-armed fetches after the last request are ignored
       for timing (they cannot add stall) but still counted as
       unstarted. *)
    let stall_by_fetch =
      if attribution then
        Array.to_list
          (Array.mapi
             (fun i f ->
                { fetch = f;
                  fetch_index = i;
                  involuntary_stall = involuntary.(i);
                  voluntary_stall = voluntary.(i) })
             ops)
      else []
    in
    let report =
      if not faulty then Faults.empty_report
      else
        { Faults.injected_jitter = !f_jitter;
          transient_failures = !f_failures;
          retries = !f_retries;
          abandoned = !f_abandoned;
          deferred_starts = !f_deferred;
          outage_interrupts = !f_interrupts;
          dropped_fetches = !f_dropped;
          skipped_evictions = !f_skipped_evict;
          fault_stall = !f_stall;
          replans = 0;
          events = List.rev !fevents }
    in
    Ok
      ( { stall_time = !stall;
          elapsed_time = !t;
          fetches_started = !started;
          fetches_completed = !completed;
          peak_occupancy = !peak;
          events = List.rev !events;
          disk_busy;
          stall_by_fetch;
          occupancy = List.rev !occupancy },
        report )
  with Reject e -> Error e

(* [run] and [run_faulty]: the [Drop_per_disk] policy plus the
   [simulate.*] series ({!Delayed.run} keeps its own [delayed.*]). *)
let exec_simulate ~extra_slots ~record_events ~attribution ~faults inst schedule =
  let no_park ~req_index:_ ~block:_ ~disk:_ ~parked_at:_ ~ready_at:_ ~queue_depth:_ = () in
  let result =
    exec ~policy:Drop_per_disk ~extra_slots ~record_events ~attribution ~window:0 ~faults
      ~on_park:no_park inst schedule
  in
  (match result with
   | Ok (s, _) ->
     if Telemetry.enabled () then begin
       Telemetry.incr m_runs;
       Telemetry.add m_stall_units s.stall_time;
       Telemetry.add m_fetches s.fetches_completed;
       List.iter
         (fun a ->
            Telemetry.add m_stall_involuntary a.involuntary_stall;
            Telemetry.add m_stall_voluntary a.voluntary_stall)
         s.stall_by_fetch;
       Telemetry.observe_int m_stall_hist s.stall_time;
       Telemetry.observe_int m_peak_hist s.peak_occupancy;
       if s.elapsed_time > 0 then
         Array.iter
           (fun busy -> Telemetry.observe m_util_hist (float_of_int busy /. float_of_int s.elapsed_time))
           s.disk_busy
     end
   | Error _ -> if Telemetry.enabled () then Telemetry.incr m_rejected);
  result

let run ?(extra_slots = 0) ?(record_events = false) ?(attribution = false) (inst : Instance.t)
    (schedule : Fetch_op.schedule) : (stats, error) Result.t =
  match exec_simulate ~extra_slots ~record_events ~attribution ~faults:Faults.none inst schedule with
  | Ok (s, _) -> Ok s
  | Error e -> Error e

let run_faulty ?(extra_slots = 0) ?(record_events = false) ?(attribution = false)
    ~(faults : Faults.t) (inst : Instance.t) (schedule : Fetch_op.schedule) :
  (stats * Faults.report, error) Result.t =
  let r = exec_simulate ~extra_slots ~record_events ~attribution ~faults inst schedule in
  (match r with Ok (_, report) when not (Faults.is_none faults) -> record_fault_telemetry report | _ -> ());
  r

let exec_delayed ~extra_slots ~record_events ~attribution ~window ~faults ~on_park inst schedule =
  exec ~policy:Defer_global ~extra_slots ~record_events ~attribution ~window ~faults ~on_park inst
    schedule

(* Typed channel for "this schedule was rejected" in exception position.
   Defined here (the lowest layer that can reject) so lib/core's Driver
   can rebind it rather than wrap-and-rethrow; [algorithm] names the
   producer of the offending schedule. *)

exception Invalid_schedule of { algorithm : string; at_time : int; reason : string }

let () =
  Printexc.register_printer (function
    | Invalid_schedule { algorithm; at_time; reason } ->
      Some
        (Printf.sprintf "%s produced an invalid schedule at t=%d: %s" algorithm at_time reason)
    | _ -> None)

let reject ~algorithm (e : error) =
  raise (Invalid_schedule { algorithm; at_time = e.at_time; reason = e.reason })

(* Convenience wrappers. *)

let stall_time ?extra_slots inst schedule =
  match run ?extra_slots inst schedule with
  | Ok s -> Ok s.stall_time
  | Error e -> Error e

let stall_time_exn ?(name = "replay") ?extra_slots inst schedule =
  match run ?extra_slots inst schedule with
  | Ok s -> s.stall_time
  | Error e -> reject ~algorithm:name e

let elapsed_time_exn ?(name = "replay") ?extra_slots inst schedule =
  match run ?extra_slots inst schedule with
  | Ok s -> s.elapsed_time
  | Error e -> reject ~algorithm:name e
