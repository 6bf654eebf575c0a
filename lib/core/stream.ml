(* Streaming request engine: the online-with-bounded-lookahead core.

   The batch {!Driver} consumes a whole {!Instance.t} with {!Next_ref}
   precomputed offline — full-trace omniscience.  This engine models the
   paper's real setting instead: requests arrive incrementally from a
   pull-based {!source}, schedulers see only a bounded lookahead window
   of [w] requests past the cursor, and next-reference knowledge is
   truncated at the window edge ({!Win_ref.horizon} beyond it).

   Policies plug in behind libCacheSim-style hooks ({!policy}:
   [prefetch] / [on_find] / [on_insert] / [on_evict]); the built-in
   ports and history-based competitors live in {!Prefetcher}.

   The engine mirrors the batch Fast loop (tick completions, decide,
   advance, skip the instants where no fetch can start), so at [w = n] a
   ported policy produces byte-identical schedules to its batch twin —
   the streaming oracle class in lib/check pins this across the fuzz
   corpus.  Unlike the batch driver it holds no full-trace arrays and
   nothing sized by block ids: internally every block is named by its
   {!Win_ref} slot (residency is a live entry in the slot-indexed
   eviction heap), and the engine pins a block's slot from the fetch
   that brings it in until its eviction.  Memory is O(window + cache)
   for any ids, so endless traces stream in constant space.  Policies
   see raw ids only.

   Misses the policy declines to cover are handled by a built-in demand
   fetch (issued after the policy's [prefetch] at the same instant, only
   when the disk is idle and the cursor's block is neither resident nor
   in flight), so history-based prefetchers that only speculate still
   make progress.  For the ported omniscient-within-window policies the
   demand path never fires — they always cover the cursor miss first. *)

(* ------------------------------------------------------------------ *)
(* Sources. *)

type source = { name : string; pull : unit -> int option }

let source ~name pull = { name; pull }

let of_array ?(name = "array") arr =
  let i = ref 0 in
  { name;
    pull =
      (fun () ->
         if !i >= Array.length arr then None
         else begin
           let v = arr.(!i) in
           incr i;
           Some v
         end) }

let of_list ?(name = "list") l =
  let rest = ref l in
  { name;
    pull =
      (fun () ->
         match !rest with
         | [] -> None
         | v :: tl ->
           rest := tl;
           Some v) }

let of_reader ?(name = "trace") (r : Trace_io.reader) =
  { name; pull = (fun () -> Trace_io.read_request r) }

let take n src =
  let left = ref n in
  { name = src.name;
    pull =
      (fun () ->
         if !left <= 0 then None
         else begin
           decr left;
           src.pull ()
         end) }

(* Endless synthetic twins of the {!Workload} generators: same RNG
   discipline (one [Random.State] consumed in request order), so a
   [take n] prefix is element-identical to the corresponding batch
   array — a tested invariant. *)

let rng seed = Random.State.make [| seed; 0x9e3779b9 |]

let uniform ~seed ~num_blocks =
  let st = rng seed in
  { name = "uniform"; pull = (fun () -> Some (Random.State.int st num_blocks)) }

let zipf ~seed ~alpha ~num_blocks =
  let sample = Workload.zipf_sampler ~seed ~alpha ~num_blocks in
  { name = "zipf"; pull = (fun () -> Some (sample ())) }

let sequential_scan ~num_blocks =
  let i = ref 0 in
  { name = "scan";
    pull =
      (fun () ->
         let v = !i mod num_blocks in
         incr i;
         Some v) }

let phase_shift ~seed ~num_blocks ~phase_len ~working_set =
  if phase_len < 1 then invalid_arg "Stream.phase_shift: phase_len must be >= 1";
  if working_set < 1 || working_set > num_blocks then
    invalid_arg "Stream.phase_shift: working_set must be in [1, num_blocks]";
  let st = rng seed in
  let stride = Stdlib.max 1 (working_set / 2) in
  let i = ref 0 in
  { name = "phase_shift";
    pull =
      (fun () ->
         let phase = !i / phase_len in
         incr i;
         let offset = phase * stride mod num_blocks in
         let a = Random.State.int st working_set in
         let b = Random.State.int st working_set in
         Some ((offset + Stdlib.min a b) mod num_blocks)) }

(* ------------------------------------------------------------------ *)
(* Engine. *)

let horizon = Win_ref.horizon

type t = {
  k : int;
  fetch_time : int;
  window : int;
  record_schedule : bool;
  src : source;
  wr : Win_ref.t;
  mutable exhausted : bool;
  mutable time : int;
  mutable cursor : int;
  heap : Evict_heap.t;  (* by slot: live iff resident; key = windowed next ref, ties by raw id *)
  mutable fly_slot : int;  (* slot of the block in flight; -1 when the (single) disk is idle *)
  mutable fly_end : int;
  mutable reach_cur : int;  (* first instant the cursor reached its position *)
  mutable missing_from : int;  (* [cursor, missing_from) holds no missing position *)
  mutable fc_next : int;  (* next ref of the last [furthest_cached_block] answer *)
  mutable found_upto : int;  (* positions whose on_find already fired *)
  mutable max_block_seen : int;
  mutable ops_rev : Fetch_op.t list;
  mutable stall : int;
  mutable served : int;
  mutable fetches : int;
  mutable demand_fetches : int;
  mutable refills : int;
  mutable pulled : int;
  mutable clock_skips : int;
  mutable clock_units_skipped : int;
  pol : policy;
}

and policy = {
  policy_name : string;
  prefetch : t -> unit;  (* the decision slot: every instant the disk is idle *)
  on_find : t -> block:int -> hit:bool -> unit;  (* once per request, at first head attempt *)
  on_insert : t -> block:int -> unit;  (* a fetched block became resident *)
  on_evict : t -> block:int -> unit;  (* a resident block was dropped *)
}

(* A policy with no-op hooks, for partial overrides. *)
let passive_policy name =
  { policy_name = name;
    prefetch = (fun _ -> ());
    on_find = (fun _ ~block:_ ~hit:_ -> ());
    on_insert = (fun _ ~block:_ -> ());
    on_evict = (fun _ ~block:_ -> ()) }

type outcome = {
  policy : string;
  window_used : int;
  stall_time : int;
  elapsed_time : int;
  served : int;
  fetches : int;
  demand_fetches : int;
  refills : int;
  schedule : Fetch_op.t list option;
}

let resident t s = Evict_heap.mem t.heap s
let id t s = Win_ref.id_of_slot t.wr s

(* Read API for policies. *)

let cursor t = t.cursor
let time t = t.time
let fetch_time t = t.fetch_time
let cache_size t = t.k
let window t = t.window
let lookahead_end t = Win_ref.filled t.wr
let request_at t p = Win_ref.block_at t.wr p
let exhausted t = t.exhausted
let max_block_seen t = t.max_block_seen

let in_cache t b = resident t (Win_ref.slot_of t.wr b)
let cache_count t = Evict_heap.size t.heap
let disk_busy t = t.fly_slot >= 0
let block_in_flight t b = t.fly_slot >= 0 && id t t.fly_slot = b

let has_free_slot t = cache_count t + (if t.fly_slot >= 0 then 1 else 0) < t.k
let cache_full t = not (has_free_slot t)

let next_ref t ~block ~from = Win_ref.next_at_or_after t.wr block ~from
let prev_ref t ~block ~before = Win_ref.prev_before t.wr block ~before

(* First window position >= cursor whose block is neither cached nor in
   flight, or -1 within the lookahead.  Monotone-frontier accelerated
   exactly like the batch Fast engine: positions in [cursor,
   missing_from) are known non-missing, and the only transition that
   re-opens one is an eviction, which clamps the frontier. *)
let next_missing_pos t =
  let hi = Win_ref.filled t.wr in
  let p = ref (if t.missing_from >= t.cursor then t.missing_from else t.cursor) in
  while
    !p < hi
    &&
    let s = Win_ref.slot_at t.wr !p in
    resident t s || s = t.fly_slot
  do
    incr p
  done;
  if !p >= hi then begin
    t.missing_from <- hi;
    -1
  end
  else begin
    t.missing_from <- !p;
    !p
  end
(* The cached block whose next in-window reference measured from [from]
   is furthest in the future; ties towards the smallest block id,
   matching the batch Reference scan's ascending strict-[>] semantics.
   Blocks not referenced within the window score {!horizon}.

   Heap-accelerated exactly like the batch Fast engine: live keys are
   measured from the cursor, so for [from > cursor] (Delay's d' offset)
   the blocks whose key undershoots are precisely those referenced at
   window positions [cursor, from) - a short linear pass re-scores them,
   and the heap top covers every block with key >= from.  Answers the
   raw block id (-1 for an empty cache) and leaves its next reference
   in [fc_next]. *)
let furthest_cached_block t ~from =
  let best = ref (-1) and best_next = ref (-1) in
  let hi = Win_ref.filled t.wr in
  for p = t.cursor to (if from <= hi then from else hi) - 1 do
    let s = Win_ref.slot_at t.wr p in
    if resident t s then begin
      let b = id t s and nx = Win_ref.slot_next t.wr s ~from in
      if nx > !best_next || (nx = !best_next && b < !best) then begin
        best_next := nx;
        best := b
      end
    end
  done;
  let s = Evict_heap.top_block t.heap in
  if s >= 0 then begin
    let key = Evict_heap.top_key t.heap in
    if key >= from then begin
      let b = id t s in
      if key > !best_next || (key = !best_next && b < !best) then begin
        best_next := key;
        best := b
      end
    end
  end;
  t.fc_next <- !best_next;
  !best

let furthest_cached_next t = t.fc_next
(* Residency changes flow through these two so the heap and the slot's
   pin (taken by [start_fetch], dropped at eviction) never drift. *)
let cache_add t s =
  Evict_heap.add_ranked t.heap ~block:s ~rank:(id t s)
    ~key:(Win_ref.slot_next t.wr s ~from:t.cursor)

let cache_remove t s =
  Evict_heap.remove t.heap ~block:s;
  Win_ref.unpin t.wr s

let internal_error t fmt =
  Printf.ksprintf
    (fun msg ->
       Simulate.internal_error ~component:"stream"
         "%s (t=%d r%d window [%d,%d) in-flight %s)" msg t.time (t.cursor + 1) t.cursor
         (Win_ref.filled t.wr)
         (if t.fly_slot >= 0 then Printf.sprintf "b%d until %d" (id t t.fly_slot) t.fly_end
          else "none"))
    fmt

(* Initiate a fetch at the current instant (policies and the demand path
   both land here). *)
let start_fetch t ~block ~evict =
  if t.fly_slot >= 0 then internal_error t "fetch of b%d while disk busy" block;
  if in_cache t block then internal_error t "fetch of b%d already resident" block;
  (match evict with
   | Some e ->
     let se = Win_ref.slot_of t.wr e in
     if not (resident t se) then
       internal_error t "eviction of b%d which is not resident" e;
     (* The eviction re-opens e's in-window references: clamp the
        missing frontier back to its next one. *)
     let q = Win_ref.slot_next t.wr se ~from:t.cursor in
     if q < t.missing_from then t.missing_from <- q;
     cache_remove t se;
     t.pol.on_evict t ~block:e
   | None ->
     if cache_count t >= t.k then internal_error t "fetch of b%d with no free slot" block);
  if t.record_schedule then
    t.ops_rev <-
      Fetch_op.make ~at_cursor:t.cursor ~delay:(t.time - t.reach_cur) ~block ~evict ()
      :: t.ops_rev;
  t.fly_slot <- Win_ref.pin t.wr block;
  t.fly_end <- t.time + t.fetch_time;
  t.fetches <- t.fetches + 1;
  if Event_log.enabled () then
    Event_log.record
      (Event_log.Fetch_issue { time = t.time; cursor = t.cursor; block; disk = 0; evict })

(* ------------------------------------------------------------------ *)
(* Run loop. *)

let create ~k ~fetch_time ~window ~record_schedule ~initial_cache src pol =
  if k < 1 then invalid_arg "Stream.run: cache size must be >= 1";
  if fetch_time < 1 then invalid_arg "Stream.run: fetch time must be >= 1";
  if window < 1 then invalid_arg "Stream.run: window must be >= 1";
  let t =
    { k;
      fetch_time;
      window;
      record_schedule;
      src;
      wr = Win_ref.create ();
      exhausted = false;
      time = 0;
      cursor = 0;
      heap = Evict_heap.create ~num_blocks:64;
      fly_slot = -1;
      fly_end = 0;
      reach_cur = 0;
      missing_from = 0;
      fc_next = -1;
      found_upto = 0;
      max_block_seen = -1;
      ops_rev = [];
      stall = 0;
      served = 0;
      fetches = 0;
      demand_fetches = 0;
      refills = 0;
      pulled = 0;
      clock_skips = 0;
      clock_units_skipped = 0;
      pol }
  in
  List.iter
    (fun b ->
       if b < 0 then invalid_arg "Stream.run: negative initial cache block";
       if in_cache t b then invalid_arg "Stream.run: duplicate initial cache block";
       cache_add t (Win_ref.pin t.wr b))
    initial_cache;
  if cache_count t > k then invalid_arg "Stream.run: initial cache exceeds cache size";
  t

let refill t =
  let before = Win_ref.filled t.wr in
  while (not t.exhausted) && Win_ref.filled t.wr - t.cursor < t.window do
    match t.src.pull () with
    | Some b ->
      if b < 0 then invalid_arg (Printf.sprintf "Stream: negative block id %d in source" b);
      let p = Win_ref.filled t.wr in
      Win_ref.push t.wr b;
      if b > t.max_block_seen then t.max_block_seen <- b;
      (* If a resident block just gained its first in-window reference,
         its eviction key drops from horizon to this position. *)
      let s = Win_ref.slot_at t.wr p in
      if Evict_heap.key_of t.heap s = horizon then
        Evict_heap.add_ranked t.heap ~block:s ~rank:b ~key:p
    | None -> t.exhausted <- true
  done;
  let added = Win_ref.filled t.wr - before in
  if added > 0 then begin
    t.refills <- t.refills + 1;
    t.pulled <- t.pulled + added;
    if Event_log.enabled () then
      Event_log.record
        (Event_log.Window_refill
           { time = t.time; cursor = t.cursor; filled = Win_ref.filled t.wr; added })
  end

let finished t = t.exhausted && t.cursor >= Win_ref.filled t.wr

let tick_completion t =
  if t.fly_slot >= 0 && t.fly_end = t.time then begin
    let s = t.fly_slot in
    t.fly_slot <- -1;
    cache_add t s;
    let b = id t s in
    if Event_log.enabled () then
      Event_log.record (Event_log.Fetch_complete { time = t.time; block = b; disk = 0 });
    t.pol.on_insert t ~block:b
  end

let fire_on_find t =
  if t.found_upto <= t.cursor && t.cursor < Win_ref.filled t.wr then begin
    t.found_upto <- t.cursor + 1;
    let s = Win_ref.slot_at t.wr t.cursor in
    t.pol.on_find t ~block:(id t s) ~hit:(resident t s)
  end

(* Built-in demand fetch: covers a cursor miss the policy left open.
   Never fires for the ported window-omniscient policies (they always
   fetch the next missing block first); it is what lets purely
   speculative history policies run without deadlocking. *)
let demand_fetch t =
  if t.fly_slot < 0 && t.cursor < Win_ref.filled t.wr then begin
    let s = Win_ref.slot_at t.wr t.cursor in
    if not (resident t s) then begin
      let b = id t s in
      let evict =
        if has_free_slot t then None
        else
          let e = furthest_cached_block t ~from:t.cursor in
          if e < 0 then internal_error t "demand fetch of b%d with full empty cache" b
          else Some e
      in
      t.demand_fetches <- t.demand_fetches + 1;
      start_fetch t ~block:b ~evict
    end
  end

(* Serve or stall, then refill the window.  While the disk is busy no
   fetch can start ([start_fetch] raises), so every instant before the
   completion is a serve or a stall: serves continue in a tight loop and
   a stall run jumps straight to the completion instant - the batch
   Driver's [fast_forward] on one disk. *)
let rec advance t =
  fire_on_find t;
  let s = Win_ref.slot_at t.wr t.cursor in
  if resident t s then begin
    t.cursor <- t.cursor + 1;
    t.time <- t.time + 1;
    t.reach_cur <- t.time;
    t.served <- t.served + 1;
    Win_ref.drop_below t.wr t.cursor;
    (* The serve consumed the block's nearest reference: re-key to the next one. *)
    Evict_heap.add_ranked t.heap ~block:s ~rank:(id t s)
      ~key:(Win_ref.slot_next t.wr s ~from:t.cursor);
    refill t
  end
  else begin
    if t.fly_slot < 0 then
      internal_error t "stall with idle disk awaiting b%d (engine bug)" (id t s);
    t.clock_skips <- t.clock_skips + 1;
    t.clock_units_skipped <- t.clock_units_skipped + (t.fly_end - t.time);
    t.stall <- t.stall + (t.fly_end - t.time);
    t.time <- t.fly_end
  end;
  if t.fly_slot >= 0 && t.time < t.fly_end && not (finished t) then advance t

let flush_stats (t : t) =
  if Telemetry.enabled () then begin
    let c name v = Telemetry.add (Telemetry.counter name) v in
    c "stream.runs" 1;
    c "stream.requests" t.served;
    c "stream.pulled" t.pulled;
    c "stream.refills" t.refills;
    c "stream.fetches" t.fetches;
    c "stream.demand_fetches" t.demand_fetches;
    c "stream.stall_units" t.stall;
    c "stream.clock_skips" t.clock_skips;
    c "stream.clock_units_skipped" t.clock_units_skipped;
    c "stream.heap_pushes" (Evict_heap.pushes t.heap);
    c "stream.heap_stale_pops" (Evict_heap.stale_pops t.heap)
  end

let run ?(record_schedule = false) ?(initial_cache = []) ~k ~fetch_time ~window src
    (pol : policy) : outcome =
  let t = create ~k ~fetch_time ~window ~record_schedule ~initial_cache src pol in
  refill t;
  while not (finished t) do
    tick_completion t;
    fire_on_find t;
    pol.prefetch t;
    demand_fetch t;
    advance t
  done;
  flush_stats t;
  { policy = pol.policy_name;
    window_used = t.window;
    stall_time = t.stall;
    elapsed_time = t.time;
    served = t.served;
    fetches = t.fetches;
    demand_fetches = t.demand_fetches;
    refills = t.refills;
    schedule = (if record_schedule then Some (List.rev t.ops_rev) else None) }
