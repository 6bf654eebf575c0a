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
   drop); see [policy] below.

   The loop's clock moves from event to event, not unit by unit.  A serve
   or a park takes one round per request, but a stall lasts, unchanged,
   until the next instant at which the state can change: the earliest
   in-flight completion, armed start, due retry, outage transition, or
   the instant past the deadlock horizon.  The loop crosses such a run in
   one step and charges it in bulk: to the stall time, to the attributed
   fetch, and to the fault stall for exactly the units the per-unit rule
   counts (on a slowed attempt, those at or after its start + F).  It
   emits one [Stall] event per unit only when events are recorded.  One
   exception keeps the per-unit behaviour: when a launch in this
   instant's global-defer pass follows ops the pass left waiting, one of
   them may have become startable (the launch evicted the block it
   refetches, say) with no completion in between, so the clock steps a
   single unit and the next instant's pass retries it.

   The loop's bookkeeping is flat int state.  Pending ops are one array
   of op indexes in anchor order, consumed by a pointer as the cursor
   advances.  Armed ops sit in an int min-heap keyed by start time, ties
   broken by anchor, delay, disk and schedule position.  The
   degraded-mode queues are int FIFOs; the global one is rescanned from
   its head only after a launch, completion or interrupt, and otherwise
   only its newcomers are tried. *)

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

(* Stall runs the clock crossed in one step, and the instants it thereby
   never visited; bumped by every executor, flushed once per run. *)
let m_clock_skips = Telemetry.counter "simulate.clock_skips"
let m_clock_units = Telemetry.counter "simulate.clock_units_skipped"

(* A growable FIFO of op indexes: the live entries are
   [a.(head) .. a.(tail - 1)], oldest first. *)
type fifo = { mutable a : int array; mutable head : int; mutable tail : int }

let fifo_create () = { a = [||]; head = 0; tail = 0 }
let fifo_length q = q.tail - q.head

let fifo_push q x =
  if q.tail = Array.length q.a then begin
    (* Full at the back: slide the live entries to the front, into a
       buffer twice their size once they fill half of the old one. *)
    let len = fifo_length q in
    let a = if 2 * len < Array.length q.a then q.a else Array.make (max 8 (2 * len)) 0 in
    Array.blit q.a q.head a 0 len;
    q.a <- a;
    q.head <- 0;
    q.tail <- len
  end;
  q.a.(q.tail) <- x;
  q.tail <- q.tail + 1

let fifo_pop q =
  let x = q.a.(q.head) in
  q.head <- q.head + 1;
  x

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
   delayed hit.  The clock and the state layout are described at the top
   of this file. *)
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
    let queues = Array.init nqueues (fun _ -> fifo_create ()) in
    let queue_of i =
      match policy with Drop_per_disk -> queues.(ops.(i).Fetch_op.disk) | Defer_global -> queues.(0)
    in
    let queued = ref 0 in
    (* Whether a launch, completion or interrupt changed the state since
       the last [Defer_global] pass began: only then can an op that pass
       left waiting have become startable.  The first [tested] entries of
       the global FIFO have been tried since that change. *)
    let dirty = ref false in
    let tested = ref 0 in
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
    (* Parked requests per in-flight op: their number (arrays empty unless
       parking is on) and, only for the [Serve] events of their release,
       the requests themselves, newest first. *)
    let psz = if window > 0 then nops else 0 in
    let waiters = Array.make (if record_events then psz else 0) [] in
    let waiter_count = Array.make psz 0 in
    let parked_count = ref 0 in
    (* Fault report accumulators. *)
    let f_jitter = ref 0 and f_failures = ref 0 and f_retries = ref 0 in
    let f_abandoned = ref 0 and f_deferred = ref 0 and f_interrupts = ref 0 in
    let f_dropped = ref 0 and f_skipped_evict = ref 0 and f_stall = ref 0 in
    let fevents = ref [] in
    let fevent e = fevents := e :: !fevents in
    (* Pending fetches: op indexes sorted by anchor cursor.  The loop
       reaches the cursors 0, 1, ..., n in order, each once, so arming
       the ops of cursor [c] just takes them from [next_pending] on.
       Schedules usually come in anchor order; only the others are
       sorted. *)
    let pending = Array.init nops Fun.id in
    let in_order = ref true in
    for i = 1 to nops - 1 do
      if ops.(i).Fetch_op.at_cursor < ops.(i - 1).Fetch_op.at_cursor then in_order := false
    done;
    if not !in_order then
      Array.sort
        (fun i1 i2 -> Int.compare ops.(i1).Fetch_op.at_cursor ops.(i2).Fetch_op.at_cursor)
        pending;
    let next_pending = ref 0 in
    (* Armed fetches - anchor reached, absolute start time known - in a
       binary min-heap of (start time, op index), [armed] entries long.
       Ties on the start time go by [compare_pending]; that order is
       total, so the heap yields the armed ops in one fixed order however
       they were armed.  The heap rarely holds more than a few ops, so it
       starts small and doubles when full. *)
    let compare_pending i1 i2 =
      match Fetch_op.compare_start ops.(i1) ops.(i2) with 0 -> Int.compare i1 i2 | c -> c
    in
    let before t1 i1 t2 i2 = t1 < t2 || (t1 = t2 && compare_pending i1 i2 < 0) in
    let heap_t = ref (Array.make (min nops 64) 0) in
    let heap_i = ref (Array.make (min nops 64) 0) in
    let armed = ref 0 in
    let arm_push time i =
      if !armed = Array.length !heap_t then begin
        let grow a = Array.append a (Array.make (Array.length a) 0) in
        heap_t := grow !heap_t;
        heap_i := grow !heap_i
      end;
      let heap_t = !heap_t and heap_i = !heap_i in
      let k = ref !armed in
      incr armed;
      while
        !k > 0
        &&
        let p = (!k - 1) / 2 in
        before time i heap_t.(p) heap_i.(p)
      do
        let p = (!k - 1) / 2 in
        heap_t.(!k) <- heap_t.(p);
        heap_i.(!k) <- heap_i.(p);
        k := p
      done;
      heap_t.(!k) <- time;
      heap_i.(!k) <- i
    in
    (* Remove the heap's top entry. *)
    let arm_pop () =
      let heap_t = !heap_t and heap_i = !heap_i in
      decr armed;
      let m = !armed in
      let last_t = heap_t.(m) and last_i = heap_i.(m) in
      let k = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !k) + 1 in
        if l >= m then sifting := false
        else begin
          let c =
            if l + 1 < m && before heap_t.(l + 1) heap_i.(l + 1) heap_t.(l) heap_i.(l) then l + 1
            else l
          in
          if before heap_t.(c) heap_i.(c) last_t last_i then begin
            heap_t.(!k) <- heap_t.(c);
            heap_i.(!k) <- heap_i.(c);
            k := c
          end
          else sifting := false
        end
      done;
      heap_t.(!k) <- last_t;
      heap_i.(!k) <- last_i
    in
    let arm time c =
      while !next_pending < nops && ops.(pending.(!next_pending)).Fetch_op.at_cursor = c do
        let i = pending.(!next_pending) in
        incr next_pending;
        arm_push (time + ops.(i).Fetch_op.delay) i
      done
    in
    let events = ref [] in
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
    let clock_skips = ref 0 and clock_units = ref 0 in
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
      dirty := true;
      if first then begin
        incr reserved;
        incr started
      end;
      if record_events then events := Fetch_start { time = !t; fetch = f } :: !events;
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
    let start_due () =
      while !armed > 0 && (!heap_t).(0) <= !t do
        let i = (!heap_i).(0) in
        let f = ops.(i) in
        let open Fetch_op in
        if (!heap_t).(0) < !t then
          (* The heap is drained at every instant the clock visits, and the
             clock never crosses an armed start, so an overdue entry is an
             executor bug, not a bad plan. *)
          internal_error ~component "armed fetch of b%d on disk %d overdue: start time %d < clock %d"
            f.block f.disk (!heap_t).(0) !t;
        arm_pop ();
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
        launch i ~duration:fetch_time ~first:true
      done
    in
    (* Degraded mode: due retries and due planned starts join the queues;
       a start that cannot go now waits instead of rejecting. *)
    let rec move_retries () =
      match !retryq with
      | (ready, i) :: rest when ready <= !t ->
        retryq := rest;
        fifo_push (queue_of i) i;
        incr queued;
        move_retries ()
      | _ -> ()
    in
    let move_armed () =
      while !armed > 0 && (!heap_t).(0) <= !t do
        let i = (!heap_i).(0) in
        arm_pop ();
        fifo_push (queue_of i) i;
        incr queued
      done
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
             fifo_length q > 0
             && in_flight_op.(d) < 0
             && not (has_outages && Faults.disk_down faults ~disk:d ~time:!t)
           do
             decr queued;
             fault_start (fifo_pop q)
           done;
           (* Anything still queued was deferred by a busy or down disk. *)
           for p = q.head to q.tail - 1 do
             mark_deferred q.a.(p)
           done
         done
       | Defer_global ->
         (* One pass over the global FIFO: start what fits, keep the rest
            (busy disk, or the block still resident / in flight from an
            earlier elongated fetch) in order.  An entry tried since the
            last state change would fail again, so unless the state is
            dirty the pass tries only the entries queued since. *)
         let q = queues.(0) in
         let from = q.head + if !dirty then 0 else !tested in
         dirty := false;
         let keep = ref from in
         for p = from to q.tail - 1 do
           let i = q.a.(p) in
           if startable i then begin
             decr queued;
             start_first i
           end
           else begin
             mark_deferred i;
             q.a.(!keep) <- i;
             incr keep
           end
         done;
         q.tail <- !keep;
         tested := fifo_length q)
    in
    (* First queued op fetching block [b] - any queued op when [b < 0] -
       FIFOs in order, then backoffs; -1 if none. *)
    let rec find_retry b = function
      | [] -> -1
      | (_, i) :: rest -> if b < 0 || ops.(i).Fetch_op.block = b then i else find_retry b rest
    in
    let find_queued b =
      let found = ref (-1) and qi = ref 0 in
      while !found < 0 && !qi < nqueues do
        let q = queues.(!qi) in
        let p = ref q.head in
        while !found < 0 && !p < q.tail do
          let i = q.a.(!p) in
          if b < 0 || ops.(i).Fetch_op.block = b then found := i;
          incr p
        done;
        incr qi
      done;
      if !found >= 0 then !found else find_retry b !retryq
    in
    (* Charge [run] stall units, starting at [t], to an in-flight op.  In
       fault mode a unit is also the plan's doing when the op is on a
       repeat attempt, was deferred, or is running past F on a slowed
       attempt: the units at or after [cur_start + F]. *)
    let charge_involuntary i run =
      involuntary.(i) <- involuntary.(i) + run;
      if faulty then
        if attempts.(i) > 1 || has flags i deferred then f_stall := !f_stall + run
        else if has flags i slowed then
          f_stall := !f_stall + max 0 (!t + run - max !t (cur_start.(i) + fetch_time))
    in
    (* A queued op - waiting for its disk or its state, or sitting out a
       backoff - is still "not started", so the partition books the units
       as voluntary, but the delay is the degraded mode's doing. *)
    let charge_queued i run =
      voluntary.(i) <- voluntary.(i) + run;
      f_stall := !f_stall + run
    in
    (* Charge a run of [run] stall units awaiting block [b] (-1 in the
       tail drain of parked requests) to the fetch supplying it: in flight
       -> involuntary, armed but deliberately delayed -> voluntary, queued
       -> voluntary and fault stall.  The state is constant over the run,
       so every unit goes to the same fetch. *)
    let charge_stall b run =
      let flying = if b >= 0 then block_in_flight.(b) else -1 in
      if flying >= 0 then charge_involuntary flying run
      else begin
        (* The first armed op to start among those fetching [b]. *)
        let supplier = ref (-1) in
        let heap_t = !heap_t and heap_i = !heap_i in
        if b >= 0 then
          for k = 0 to !armed - 1 do
            if ops.(heap_i.(k)).Fetch_op.block = b
               && (!supplier < 0
                   || before heap_t.(k) heap_i.(k) heap_t.(!supplier) heap_i.(!supplier))
            then supplier := k
          done;
        if !supplier >= 0 then begin
          let i = heap_i.(!supplier) in
          voluntary.(i) <- voluntary.(i) + run
        end
        else
          let q = if b >= 0 then find_queued b else -1 in
          if q >= 0 then charge_queued q run
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
            if !best >= 0 then charge_involuntary !best run
            else if !armed > 0 then voluntary.(heap_i.(0)) <- voluntary.(heap_i.(0)) + run
            else
              let q = find_queued (-1) in
              if q >= 0 then charge_queued q run
              else
                (* A stall unit with nothing in flight, armed, or queued
                   means the plan ran dry while requests remain - the
                   deadlock check rejects before charging. *)
                internal_error ~component
                  "stall at time %d awaiting b%d with no fetch in flight, armed, or queued" !t b
          end
      end
    in
    (* Called when a stall awaits [b] with no fetch in flight or armed:
       the missing block arrives only through a queued op, if any. *)
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
        let q = queues.(0) in
        let live = ref false in
        for p = q.head to q.tail - 1 do
          if startable q.a.(p) then live := true
        done;
        if not !live then
          rejectf !t "request r%d (b%d) missing and unrecoverable (deferred fetches wedged)"
            (!cursor + 1) b
      end
    in
    (* The first instant after [t] at which the state can change: the
       earliest in-flight completion, armed start, due retry or outage
       transition, and at the latest the instant past the horizon. *)
    let rec next_transition nx = function
      | [] -> nx
      | (o : Faults.outage) :: rest ->
        let nx = if o.Faults.from_time > !t && o.Faults.from_time < nx then o.Faults.from_time else nx in
        let nx =
          if o.Faults.until_time > !t && o.Faults.until_time < nx then o.Faults.until_time else nx
        in
        next_transition nx rest
    in
    let next_change () =
      let nx = ref (horizon + 1) in
      for d = 0 to num_disks - 1 do
        if in_flight_op.(d) >= 0 && in_flight_end.(d) < !nx then nx := in_flight_end.(d)
      done;
      if !armed > 0 && (!heap_t).(0) < !nx then nx := (!heap_t).(0);
      (match !retryq with (ready, _) :: _ when ready < !nx -> nx := ready | _ -> ());
      let nx = if has_outages then next_transition !nx faults.Faults.outages else !nx in
      max (!t + 1) nx
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
      if record_events then waiters.(i) <- !cursor :: waiters.(i);
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
          dirty := true;
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
            if record_events then events := Fetch_complete { time = !t; fetch = f } :: !events;
            prov_complete ~disk:d f;
            if window > 0 && waiter_count.(i) > 0 then begin
              if record_events then begin
                List.iter
                  (fun req -> events := Serve { time = !t; index = req; block = b } :: !events)
                  (List.rev waiters.(i));
                waiters.(i) <- []
              end;
              parked_count := !parked_count - waiter_count.(i);
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
            dirty := true;
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
      (* 3. Serve, park or stall from [t].  Completions at this instant may
         have released the last parked request; the run is then over and
         no unit elapses. *)
      if !cursor < n || !parked_count > 0 then begin
        (* -1 in the tail drain: all requests issued, parked ones waiting
           on in-flight fetches. *)
        let b = if !cursor < n then inst.Instance.seq.(!cursor) else -1 in
        if b >= 0 && in_cache.(b) then begin
          prov_serve b;
          if record_events then
            events := Serve { time = !t; index = !cursor; block = b } :: !events;
          incr cursor;
          incr t;
          arm !t !cursor
        end
        else if b >= 0 && !parked_count < window && block_in_flight.(b) >= 0 then park b
        else begin
          (* Stall is legal while a fetch is in flight or an armed fetch
             will start later (a delayed start is a voluntary stall). *)
          if b >= 0 && !in_flight_count = 0 && !armed = 0 then check_deadlock b;
          (* The stall lasts until the state next changes, except right
             after a launch in a [Defer_global] pass that left ops
             waiting (see the comment on [exec]). *)
          let until =
            if policy = Defer_global && !dirty && !queued > 0 then !t + 1 else next_change ()
          in
          let run = until - !t in
          if attribution then charge_stall b run;
          prov_stall ();
          if record_events then
            for u = !t to until - 1 do
              events := Stall { time = u } :: !events
            done;
          stall := !stall + run;
          if run > 1 then begin
            incr clock_skips;
            clock_units := !clock_units + run - 1
          end;
          t := until
        end
      end
    done;
    sample_occ !t;
    if Telemetry.enabled () then begin
      Telemetry.add m_clock_skips !clock_skips;
      Telemetry.add m_clock_units !clock_units
    end;
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
