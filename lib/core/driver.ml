(* Shared timeline driver for the online-style scheduling algorithms
   (Aggressive, Conservative, Delay(d) and their parallel variants).

   The driver owns the simulated clock, cursor, cache and in-flight state
   and records every initiated fetch as a {!Fetch_op.t} (anchored to the
   cursor with the right delay), so an algorithm only has to express its
   decision rule.  The resulting schedule is replayed through
   {!Simulate.run} by callers, which keeps a single source of truth for
   timing semantics: if a driver-based algorithm and the executor ever
   disagreed on stall time, tests would catch it.

   Two engines share this interface:

   - [Reference]: the seed implementation.  Every query is a fresh scan
     ([next_missing] rescans the sequence from the cursor,
     [furthest_cached] scans all blocks with a binary search each), every
     next/previous-reference lookup is a {!Next_ref} binary search, and
     the clock ticks one instant at a time.  Quadratic, obviously
     correct, kept as the oracle for the driver-equivalence tests.

   - [Fast] (the default): the same observable behaviour in
     O((n + fetches) log k) total, the log k being the eviction heap's
     alone: no Fast-engine query at or past the cursor runs a
     {!Next_ref} binary search.
       * two per-block arrays follow the cursor: [nxt.(b)], b's next
         reference at or after the cursor, and [last.(b)], its last
         reference before it.  [serve_one] is the only place the cursor
         moves and it passes exactly one position, so one store into
         each keeps both exact.  They answer the heap key of a block
         entering the cache, the frontier clamp of an eviction and
         [prev_before] at or past the cursor (Delay's eligible cursor)
         in O(1), or in one hop per reference inside [cursor, j).
       * [next_missing] keeps a monotone frontier (global and per disk):
         every position in [cursor, frontier) is known non-missing, so
         scans resume at the frontier instead of the cursor.  The only
         transition that makes a position missing again is an eviction,
         which clamps the frontiers to the evicted block's next
         reference.
       * [furthest_cached] keeps a lazy-invalidation max-heap
         ({!Evict_heap}) with one live entry per resident block, keyed
         by the block's next reference measured from the cursor.  The
         key invariant "live key = next reference at or after the
         cursor" is maintained by re-keying the served block once per
         serve (an O(1) [next_same] lookup).  Queries [~from] beyond the
         cursor additionally re-score, in O(1) each, the ≤ from - cursor
         window positions whose blocks' heap keys may lag (Delay's d'
         window).
       * the run loop skips uniform instants: serve runs while every
         disk is busy (the decide contract below makes the callback a
         no-op there) execute in a tight loop, and stall runs where the
         last decide call was a no-op jump straight to the next fetch
         completion.

   The hot path allocates nothing per request: in-flight state is two
   int arrays, every query is a plain loop, and the queries answer with
   int sentinels ([next_missing_pos], [furthest_cached_block] plus
   [furthest_cached_next]) instead of options or pairs.

   The decide contract (all in-tree schedulers satisfy it, and the
   equivalence suite in test/test_driver_equiv.ml checks them all):
   a decide callback must (a) do nothing when every disk is busy, and
   (b) depend on the driver state only through the cursor, cache,
   in-flight and its own queue state - never on the raw clock - so that
   repeating it at an identical state is a no-op.  Callbacks that need
   recency information derive it from [last_use] / [prev_before] rather
   than by accumulating per-instant writes. *)

type engine = Fast | Reference

let default_engine = ref Fast

let with_engine e f =
  let old = !default_engine in
  default_engine := e;
  Fun.protect f ~finally:(fun () -> default_engine := old)

let active_engine () = !default_engine

type t = {
  inst : Instance.t;
  nr : Next_ref.t;
  n : int;
  engine : engine;
  mutable time : int;
  mutable cursor : int;
  in_cache : bool array;
  mutable cache_count : int;
  fly_block : int array;  (* per disk: block in flight, or -1 when idle *)
  fly_end : int array;  (* per disk: completion instant of [fly_block] *)
  mutable next_end : int;  (* earliest [fly_end] over busy disks, or max_int *)
  mutable in_flight_count : int;
  in_flight_blocks : bool array;  (* membership mirror of [fly_block] *)
  mutable reach_cur : int;  (* first instant the cursor reached its position *)
  mutable ops : Fetch_op.t list;  (* reversed *)
  mutable stall : int;
  mutable fetch_count : int;
  (* Fast-engine state (maintained by both engines, queried by Fast). *)
  heap : Evict_heap.t;  (* live key = next ref of each resident block at or after the cursor *)
  mutable fc_next : int;  (* next reference of the last [furthest_cached_block] answer *)
  mutable missing_from : int;  (* [cursor, missing_from) holds no missing position *)
  missing_from_disk : int array;  (* same, per disk *)
  resident : int array;  (* dense resident-block set, for O(k) cache_list *)
  resident_pos : int array;  (* block -> index in [resident], or -1 *)
  nxt : int array;  (* block -> its next reference at or after the cursor, or n *)
  last : int array;  (* block -> its last reference before the cursor, or -1 *)
  (* Observability: cheap local aggregates flushed to telemetry counters
     once per run (plain int increments, never a registry lookup on the
     hot path), plus stall-interval tracking for the stall histogram and
     the provenance event log. *)
  mutable frontier_advances : int;
  mutable frontier_clamps : int;
  mutable clock_skips : int;
  mutable clock_units_skipped : int;
  mutable stall_from : int;  (* start of the open stall interval, or -1 *)
  track_stalls : bool;  (* interval tracking wanted (metrics or events on) *)
  stall_hist : Telemetry.histogram option;
      (* handle cached at creation: interval closes must not pay a
         registry (string-hash) lookup each, there can be one per stall
         run *)
}

(* Cache membership changes flow through these two helpers so the heap
   and the resident set can never drift from [in_cache]. *)
let cache_add d b =
  d.in_cache.(b) <- true;
  d.resident_pos.(b) <- d.cache_count;
  d.resident.(d.cache_count) <- b;
  d.cache_count <- d.cache_count + 1;
  let key =
    match d.engine with
    | Fast -> d.nxt.(b)
    | Reference -> Next_ref.next_at_or_after d.nr b d.cursor
  in
  Evict_heap.add d.heap ~block:b ~key

let cache_remove d b =
  d.in_cache.(b) <- false;
  d.cache_count <- d.cache_count - 1;
  let i = d.resident_pos.(b) in
  let last = d.resident.(d.cache_count) in
  d.resident.(i) <- last;
  d.resident_pos.(last) <- i;
  d.resident_pos.(b) <- -1;
  Evict_heap.remove d.heap ~block:b

let create ?nr (inst : Instance.t) : t =
  let n = Instance.length inst in
  let num_blocks = Instance.num_blocks inst in
  let nr = match nr with Some nr -> nr | None -> Next_ref.of_instance inst in
  let d =
    { inst;
      nr;
      n;
      engine = !default_engine;
      time = 0;
      cursor = 0;
      in_cache = Array.make num_blocks false;
      cache_count = 0;
      fly_block = Array.make inst.Instance.num_disks (-1);
      fly_end = Array.make inst.Instance.num_disks 0;
      next_end = max_int;
      in_flight_count = 0;
      in_flight_blocks = Array.make num_blocks false;
      reach_cur = 0;
      ops = [];
      stall = 0;
      fetch_count = 0;
      heap = Evict_heap.create ~num_blocks;
      fc_next = -1;
      missing_from = 0;
      missing_from_disk = Array.make inst.Instance.num_disks 0;
      resident = Array.make (Stdlib.max 1 num_blocks) 0;
      resident_pos = Array.make num_blocks (-1);
      nxt = Array.init num_blocks (Next_ref.first_request nr);
      last = Array.make num_blocks (-1);
      frontier_advances = 0;
      frontier_clamps = 0;
      clock_skips = 0;
      clock_units_skipped = 0;
      stall_from = -1;
      track_stalls = Telemetry.enabled () || Event_log.enabled ();
      stall_hist =
        (if Telemetry.enabled () then Some (Telemetry.histogram "driver.stall_interval") else None) }
  in
  List.iter (fun b -> cache_add d b) inst.Instance.initial_cache;
  d

let finished d = d.cursor >= d.n

let time d = d.time
let cursor d = d.cursor
let next_ref d = d.nr
let instance d = d.inst
let stall_time d = d.stall
let engine d = d.engine

let in_cache d b = d.in_cache.(b)
let cache_count d = d.cache_count

(* Cursor-synchronized lookahead: [serve_one] is the only place the
   cursor moves and it stores the served block's new next and last
   references, so both arrays are exact for every block at all times. *)
let next_use d b = d.nxt.(b)
let last_use d b = d.last.(b)

(* Last reference to [b] strictly before position [j], or -1.  Fast
   engine, [j >= cursor]: [last_use] when b is not requested in
   [cursor, j), otherwise a walk along b's [next_same] chain from its
   next use - one hop per reference of b inside [cursor, j). *)
let prev_before d b j =
  match d.engine with
  | Fast when j >= d.cursor ->
    let j = if j > d.n then d.n else j in
    let p = ref d.last.(b) and x = ref d.nxt.(b) in
    while !x < j do
      p := !x;
      x := Next_ref.next_after_same d.nr !x
    done;
    !p
  | Fast | Reference -> Next_ref.prev_before d.nr b j

(* A fetch without eviction is only legal while resident blocks plus
   in-flight reservations leave a slot free. *)
let has_free_slot d = d.cache_count + d.in_flight_count < d.inst.Instance.cache_size
let cache_full d = not (has_free_slot d)
let disk_busy d disk = d.fly_block.(disk) >= 0
let any_disk_busy d = d.in_flight_count > 0

let block_in_flight d b = d.in_flight_blocks.(b)

(* Blocks currently resident, as a sorted list.  O(k log k) from the
   dense resident set; ascending block-id order is part of the contract
   (Online's fold breaks score ties towards the earlier candidate). *)
let cache_list d =
  List.sort Stdlib.compare (Array.to_list (Array.sub d.resident 0 d.cache_count))

let imin (a : int) b = if a <= b then a else b
let imax (a : int) b = if a >= b then a else b

(* First position >= [from] whose block is neither cached nor in flight,
   or [n] if none. *)
let scan_missing d from =
  let seq = d.inst.Instance.seq in
  let i = ref from in
  while
    !i < d.n
    &&
    let b = seq.(!i) in
    d.in_cache.(b) || d.in_flight_blocks.(b)
  do
    incr i
  done;
  !i

(* Same, restricted to blocks that live on [disk]. *)
let scan_missing_on_disk d disk from =
  let seq = d.inst.Instance.seq and disk_of = d.inst.Instance.disk_of in
  let i = ref from in
  while
    !i < d.n
    &&
    let b = seq.(!i) in
    d.in_cache.(b) || d.in_flight_blocks.(b) || disk_of.(b) <> disk
  do
    incr i
  done;
  !i

let none_if_n d p = if p >= d.n then -1 else p

(* First position >= cursor whose block is neither cached nor in flight,
   or -1.

   Fast engine: every position in [cursor, frontier) is known
   non-missing, so the scan resumes at the frontier and publishes the
   new one.  The per-disk form keeps one frontier per disk. *)
let next_missing_pos d =
  match d.engine with
  | Reference -> none_if_n d (scan_missing d d.cursor)
  | Fast ->
    let nf = scan_missing d (imax d.missing_from d.cursor) in
    if nf > d.missing_from then d.frontier_advances <- d.frontier_advances + 1;
    d.missing_from <- nf;
    none_if_n d nf

let next_missing_on_disk_pos d ~disk =
  match d.engine with
  | Reference -> none_if_n d (scan_missing_on_disk d disk d.cursor)
  | Fast ->
    let nf = scan_missing_on_disk d disk (imax d.missing_from_disk.(disk) d.cursor) in
    if nf > d.missing_from_disk.(disk) then d.frontier_advances <- d.frontier_advances + 1;
    d.missing_from_disk.(disk) <- nf;
    none_if_n d nf

(* The cached block whose next reference measured from [from] is furthest
   in the future (ties: smallest id), or -1 if the cache is empty; its
   next reference lands in [fc_next].

   Reference engine: scan every block in ascending id order.

   Fast engine: the heap top answers queries at the cursor directly.  For
   [from > cursor] (Delay's d' window) the live keys of blocks referenced
   inside [cursor, from) undershoot their true next reference measured
   from [from]; those are exactly the blocks requested at the ≤ from -
   cursor window positions, so a linear pass over the window re-scores
   them and the heap covers the rest (any entry with key < from belongs
   to the window, and the valid top dominates all entries with key >=
   from).  The pass scores each window block once, at its last window
   position p, where [next_same p] (>= from, or the end n) is already
   its next reference from [from]: O(1) per position, no binary search. *)
let furthest_scan d from =
  let best = ref (-1) and best_next = ref (-1) in
  for b = 0 to Array.length d.in_cache - 1 do
    if d.in_cache.(b) then begin
      let nx = Next_ref.next_at_or_after d.nr b from in
      if nx > !best_next then begin
        best_next := nx;
        best := b
      end
    end
  done;
  d.fc_next <- !best_next;
  !best

let furthest_cached_block d ~from =
  match d.engine with
  | Reference -> furthest_scan d from
  | Fast ->
    if from < d.cursor then furthest_scan d from
    else begin
      let seq = d.inst.Instance.seq in
      let best = ref (-1) and best_next = ref (-1) in
      let horizon = imin from d.n in
      for p = d.cursor to imin (from - 1) (d.n - 1) do
        let b = seq.(p) in
        let nx = Next_ref.next_after_same d.nr p in
        if nx >= horizon && d.in_cache.(b) then begin
          if nx > !best_next || (nx = !best_next && b < !best) then begin
            best_next := nx;
            best := b
          end
        end
      done;
      let top = Evict_heap.top_block d.heap in
      if top >= 0 then begin
        let key = Evict_heap.top_key d.heap in
        if key >= from && (key > !best_next || (key = !best_next && top < !best)) then begin
          best_next := key;
          best := top
        end
      end;
      d.fc_next <- !best_next;
      !best
    end

let furthest_cached_next d = d.fc_next

(* Initiate a fetch at the current instant. *)
let start_fetch ?(disk = 0) d ~block ~evict =
  if disk_busy d disk then
    Simulate.internal_error ~component:"driver" "fetch of b%d on busy disk %d at r%d" block disk
      (d.cursor + 1);
  if d.in_cache.(block) then
    Simulate.internal_error ~component:"driver" "fetch of b%d already resident at r%d" block
      (d.cursor + 1);
  if d.in_flight_blocks.(block) then
    Simulate.internal_error ~component:"driver" "fetch of b%d already in flight at r%d" block
      (d.cursor + 1);
  (match evict with
   | Some e ->
     if not d.in_cache.(e) then
       Simulate.internal_error ~component:"driver" "eviction of b%d which is not resident at r%d"
         e (d.cursor + 1);
     (* The eviction re-opens e's references: clamp the missing
        frontiers back to its next one. *)
     let q =
       match d.engine with
       | Fast -> d.nxt.(e)
       | Reference -> Next_ref.next_at_or_after d.nr e d.cursor
     in
     if q < d.missing_from then begin
       d.frontier_clamps <- d.frontier_clamps + 1;
       if Event_log.enabled () then
         Event_log.record
           (Event_log.Frontier_clamp
              { time = d.time; cursor = d.cursor; from_pos = d.missing_from; to_pos = q;
                block = e });
       d.missing_from <- q
     end;
     let ed = d.inst.Instance.disk_of.(e) in
     if q < d.missing_from_disk.(ed) then d.missing_from_disk.(ed) <- q;
     cache_remove d e;
     if Event_log.enabled () then
       (* The runner-up is whatever now tops the heap: the candidate the
          evicted block beat.  [peek]'s lazy-invalidation cleanup is
          semantically transparent, so querying it here is safe. *)
       Event_log.record
         (Event_log.Evict
            { time = d.time; cursor = d.cursor; block = e; next_ref = q;
              runner_up = Evict_heap.peek d.heap })
   | None -> ());
  d.ops <-
    { Fetch_op.at_cursor = d.cursor; delay = d.time - d.reach_cur; disk; block; evict }
    :: d.ops;
  let ends = d.time + d.inst.Instance.fetch_time in
  d.fly_block.(disk) <- block;
  d.fly_end.(disk) <- ends;
  if ends < d.next_end then d.next_end <- ends;
  d.in_flight_blocks.(block) <- true;
  d.in_flight_count <- d.in_flight_count + 1;
  d.fetch_count <- d.fetch_count + 1;
  if Event_log.enabled () then
    Event_log.record
      (Event_log.Fetch_issue { time = d.time; cursor = d.cursor; block; disk; evict })

(* Process fetch completions due at the current instant.  Must be called
   once per instant, before decisions.  O(1) unless some fetch is due:
   [next_end] is the earliest completion, recomputed after each batch. *)
let tick_completions d =
  if d.next_end <= d.time then begin
    let ne = ref max_int in
    for disk = 0 to Array.length d.fly_block - 1 do
      let b = d.fly_block.(disk) in
      if b >= 0 then begin
        if d.fly_end.(disk) = d.time then begin
          d.fly_block.(disk) <- -1;
          d.in_flight_count <- d.in_flight_count - 1;
          d.in_flight_blocks.(b) <- false;
          cache_add d b;
          if Event_log.enabled () then
            Event_log.record (Event_log.Fetch_complete { time = d.time; block = b; disk })
        end
        else if d.fly_end.(disk) < !ne then ne := d.fly_end.(disk)
      end
    done;
    d.next_end <- !ne
  end

(* The serve that ends a stall interval attributes it to the block the
   executor was waiting on (the cursor's block) and reports it to the
   stall histogram and the provenance log.  Cold path: only reached when
   interval tracking is on and an interval is open. *)
let close_stall d =
  let b = d.inst.Instance.seq.(d.cursor) in
  (match d.stall_hist with
   | Some h -> Telemetry.observe_int h (d.time - d.stall_from)
   | None -> ());
  if Event_log.enabled () then
    Event_log.record
      (Event_log.Stall_interval
         { from_time = d.stall_from; until_time = d.time; cursor = d.cursor; block = b });
  d.stall_from <- -1

(* One serve step: the cursor's block is resident.  Re-keys the served
   block so its live heap key stays "next reference at or after the
   cursor" - its next occurrence is an O(1) [next_same] lookup - and
   moves its [nxt] / [last] entries past the cursor.  No other block's
   entries change: the cursor passes only this one position. *)
let serve_one d =
  if d.stall_from >= 0 then close_stall d;
  let c = d.cursor in
  let b = d.inst.Instance.seq.(c) in
  let nx = Next_ref.next_after_same d.nr c in
  d.nxt.(b) <- nx;
  d.last.(b) <- c;
  Evict_heap.add d.heap ~block:b ~key:nx;
  d.cursor <- d.cursor + 1;
  d.time <- d.time + 1;
  d.reach_cur <- d.time

(* Serve the next request if its block is resident, otherwise record one
   stall unit; advances the clock either way. *)
let advance d =
  let b = d.inst.Instance.seq.(d.cursor) in
  if d.in_cache.(b) then serve_one d
  else begin
    if d.in_flight_count = 0 then
      Simulate.internal_error ~component:"driver"
        "stall with empty pipeline at r%d (algorithm bug)" (d.cursor + 1);
    if d.track_stalls && d.stall_from < 0 then d.stall_from <- d.time;
    d.stall <- d.stall + 1;
    d.time <- d.time + 1
  end

let schedule d = List.rev d.ops

(* Event skipping: after a decide/advance step, run through instants
   where the decide callback is provably a no-op, stopping at (never
   past) the next completion so [tick_completions] fires on time.

   - Serve steps while every disk is busy: the contract makes decide a
     no-op, so serve in a tight loop.
   - Stall steps where the previous decide call already saw this exact
     (cursor, cache, in-flight) state and did nothing ([quiescent]), or
     where every disk is busy: nothing can change until a completion, so
     add the whole stall run at once. *)
let fast_forward d ~quiescent =
  let quiescent = ref quiescent in
  let continue = ref true in
  while !continue && not (finished d) do
    let ne = d.next_end in
    if d.time >= ne then continue := false
    else if d.in_cache.(d.inst.Instance.seq.(d.cursor)) then begin
      if d.in_flight_count = d.inst.Instance.num_disks then begin
        serve_one d;
        quiescent := false
      end
      else continue := false
    end
    else if d.in_flight_count = 0 then
      (* Deadlock: return to the main loop, whose [advance] raises the
         canonical diagnostic after one more (no-op) decide. *)
      continue := false
    else if d.in_flight_count = d.inst.Instance.num_disks || !quiescent then begin
      d.clock_skips <- d.clock_skips + 1;
      d.clock_units_skipped <- d.clock_units_skipped + (ne - d.time);
      if d.track_stalls && d.stall_from < 0 then d.stall_from <- d.time;
      if Event_log.enabled () then
        Event_log.record
          (Event_log.Clock_skip { from_time = d.time; until_time = ne; cursor = d.cursor });
      d.stall <- d.stall + (ne - d.time);
      d.time <- ne
    end
    else continue := false
  done

(* One registry flush per run: the hot loops above only touch plain int
   fields; this is where they become counters.  Totals accumulate across
   runs (sweeps sum naturally); per-run values are recoverable from the
   run counter. *)
let flush_stats d =
  if Telemetry.enabled () then begin
    let c name v = Telemetry.add (Telemetry.counter name) v in
    c "driver.runs" 1;
    c "driver.fetches" d.fetch_count;
    c "driver.stall_units" d.stall;
    c "driver.frontier_advances" d.frontier_advances;
    c "driver.frontier_clamps" d.frontier_clamps;
    c "driver.clock_skips" d.clock_skips;
    c "driver.clock_units_skipped" d.clock_units_skipped;
    c "driver.heap_pushes" (Evict_heap.pushes d.heap);
    c "driver.heap_stale_pops" (Evict_heap.stale_pops d.heap);
    c "driver.heap_compactions" (Evict_heap.compactions d.heap);
    Telemetry.observe_int (Telemetry.histogram "driver.heap_load") (Evict_heap.heap_load d.heap)
  end

(* Run an algorithm defined by a per-instant decision callback.  The
   callback runs after completions and may call [start_fetch]. *)
let run ?nr inst ~decide =
  let d = create ?nr inst in
  (match d.engine with
   | Reference ->
     while not (finished d) do
       tick_completions d;
       decide d;
       advance d
     done
   | Fast ->
     while not (finished d) do
       tick_completions d;
       let fetches_before = d.fetch_count in
       decide d;
       let cursor_before = d.cursor in
       advance d;
       (* Quiescent iff decide has already seen exactly this state and
          made no move: it started no fetch, and the advance step was a
          stall (a serve moves the cursor decide keyed its decision on). *)
       fast_forward d
         ~quiescent:(d.fetch_count = fetches_before && d.cursor = cursor_before)
     done);
  flush_stats d;
  d

(* ------------------------------------------------------------------ *)
(* Typed error channel for "the algorithm emitted a schedule the
   simulator rejects" - an internal invariant violation, not a user
   error.  One exception instead of nine per-algorithm [failwith]s, so
   Measure and the CLI can catch it uniformly. *)

exception Invalid_schedule = Simulate.Invalid_schedule
(* The definition (and its printer) lives in {!Simulate}, the layer that
   actually rejects schedules; rebinding keeps [Driver.Invalid_schedule]
   patterns working and makes the two constructors interchangeable. *)

let validate ~name ?extra_slots inst sched =
  match Simulate.run ?extra_slots inst sched with
  | Ok s -> s
  | Error e -> Simulate.reject ~algorithm:name e
