(** Shared timeline driver for the online-style scheduling algorithms.

    The driver owns the simulated clock, cursor, cache and per-disk
    in-flight state, and records each initiated fetch as a {!Fetch_op.t}
    anchored to the cursor with the correct delay.  Algorithms
    (Aggressive, Conservative, Delay(d), the parallel greedy variants, the
    online variants) only express a per-instant decision rule; the
    resulting schedule is replayed through {!Simulate.run}, keeping a
    single source of truth for timing semantics. *)

type t

(** {1 Engines}

    [Fast] (the default) answers every query in O(log k) amortized - a
    monotone next-missing frontier (global and per disk), a
    lazy-invalidation max-heap of eviction candidates ({!Evict_heap}),
    per-block next/last-reference arrays kept in step with the cursor
    (O(1) lookahead, no {!Next_ref} binary search), and an
    event-skipping clock - for O((n + fetches) log k) total per run.
    [Reference] is the seed implementation (fresh scans per query,
    one instant per loop iteration), kept as the oracle the equivalence
    suite replays every scheduler against: both engines produce
    byte-identical schedules. *)

type engine = Fast | Reference

val with_engine : engine -> (unit -> 'a) -> 'a
(** [with_engine e f] runs [f] with drivers created inside it using
    engine [e] (restored on exit, including on exceptions). *)

val engine : t -> engine

val active_engine : unit -> engine
(** The engine new drivers are created with: whatever the innermost
    {!with_engine} installed, [Fast] outside any.  Schedulers with
    engine-gated hot paths (Conservative's heap MIN, Online's
    invisible-LRU victim heap, Delay's merged queries) branch on this, so
    [with_engine Reference] selects both the seed driver and the seed
    scheduler code, keeping the equivalence suite a whole-pipeline
    oracle. *)

val create : ?nr:Next_ref.t -> Instance.t -> t
(** [nr], when given, must be [Next_ref.of_instance inst]: schedulers
    that already built the index for planning pass it along instead of
    building it again. *)

val run : ?nr:Next_ref.t -> Instance.t -> decide:(t -> unit) -> t
(** [run inst ~decide] executes the timeline to completion, calling
    [decide] after fetch completions whenever the state may have changed;
    the callback may invoke {!start_fetch}.

    Decide contract (required by the fast engine's event skipping, and
    satisfied by every in-tree scheduler): the callback must do nothing
    when every disk is busy, and must depend on the driver only through
    the cursor, cache, and in-flight state - never on the raw clock - so
    repeating it against an identical state is a no-op.  The reference
    engine literally calls [decide] once per instant; the fast engine
    skips only invocations that contract proves are no-ops.
    @raise Simulate.Internal_error if the algorithm deadlocks (stall with
    an empty pipeline), or if [decide] breaks a {!start_fetch}
    precondition. *)

(** {1 State queries (valid inside [decide])} *)

val finished : t -> bool
val time : t -> int
val cursor : t -> int

val next_ref : t -> Next_ref.t
val instance : t -> Instance.t

val in_cache : t -> int -> bool
val cache_count : t -> int
val cache_list : t -> int list

val has_free_slot : t -> bool
(** Whether a no-eviction fetch is legal: resident blocks plus in-flight
    reservations leave a slot free. *)

val cache_full : t -> bool
(** [not (has_free_slot t)]. *)

val disk_busy : t -> int -> bool
val any_disk_busy : t -> bool
val block_in_flight : t -> int -> bool

(** {1 Lookahead}

    Two per-block arrays follow the cursor: every serve stores the served
    block's next and last reference, so both are exact at all times. *)

val next_use : t -> int -> int
(** [next_use t b]: [b]'s next reference at or after the cursor
    ([Instance.length] if none).  O(1); equals
    [Next_ref.next_at_or_after (next_ref t) b (cursor t)]. *)

val last_use : t -> int -> int
(** [last_use t b]: [b]'s last reference before the cursor, or [-1].
    O(1); equals [Next_ref.prev_before (next_ref t) b (cursor t)]. *)

val prev_before : t -> int -> int -> int
(** [prev_before t b j]: [b]'s last reference before position [j], or
    [-1] - the answer of {!Next_ref.prev_before}.  Fast engine with
    [j >= cursor]: {!last_use} when [b] is not requested in
    [\[cursor, j)], otherwise one hop along [b]'s references per
    request to [b] in that range.  Otherwise (the Reference engine, or
    [j < cursor]) a binary search. *)

(** The queries answer with int sentinels ([-1] for "none") so that a
    scheduler calling them once per decision allocates nothing. *)

val next_missing_pos : t -> int
(** First position at or after the cursor whose block is neither cached
    nor in flight, or [-1] if there is none.  Fast engine: amortized O(1)
    via a monotone frontier; evictions clamp the frontier back. *)

val next_missing_on_disk_pos : t -> disk:int -> int
(** Per-disk variant (only blocks living on [disk]), with its own
    monotone frontier; [-1] if there is none. *)

val furthest_cached_block : t -> from:int -> int
(** The cached block whose next reference measured from [from] is furthest
    in the future (ties broken towards smaller ids), or [-1] if the cache
    is empty.  {!furthest_cached_next} then returns that reference
    position ([Instance.length] meaning "never again").  Fast engine:
    O(log k) amortized from the eviction-candidate heap, plus an
    O(from - cursor) re-scoring pass, O(1) per position, when querying
    beyond the cursor (Delay's d' window). *)

val furthest_cached_next : t -> int
(** The next reference of the block the last {!furthest_cached_block}
    call returned ([-1] after an empty answer). *)

(** {1 Actions} *)

val start_fetch : ?disk:int -> t -> block:int -> evict:int option -> unit
(** Initiate a fetch at the current instant.  Preconditions: the disk is
    idle, the block is neither resident nor in flight, and the evicted
    block (if any) is resident.
    @raise Simulate.Internal_error (component ["driver"]) when one fails:
    a scheduler bug, reported the same way with or without [-noassert]. *)

(** {1 Results} *)

val schedule : t -> Fetch_op.schedule
val stall_time : t -> int

(** {1 Low-level stepping (used by tests)} *)

val tick_completions : t -> unit
val advance : t -> unit

(** {1 Schedule validation} *)

exception Invalid_schedule of { algorithm : string; at_time : int; reason : string }
(** An algorithm emitted a schedule the simulator rejects - an internal
    invariant violation.  A printer is registered, so an uncaught raise
    still renders as ["%s produced an invalid schedule at t=%d: %s"]. *)

val validate : name:string -> ?extra_slots:int -> Instance.t -> Fetch_op.schedule -> Simulate.stats
(** Replay [sched] through {!Simulate.run} and return its stats.
    @raise Invalid_schedule on rejection, tagged with [name]. *)
