(** Streaming request engine: online prefetching with bounded lookahead.

    The batch {!Driver} is omniscient — it consumes a whole
    {!Instance.t} with {!Next_ref} precomputed over the full sequence.
    This engine models the paper's online setting instead: requests
    arrive one at a time from a pull-based {!source} (possibly endless),
    and the scheduler sees only a sliding lookahead window of [window]
    requests past the cursor.  Next-reference knowledge is truncated at
    the window edge: a block not referenced within the window scores
    {!horizon}, exactly as the batch engine's one-past-the-end sentinel
    scores a block never referenced again.

    Policies attach through libCacheSim-style hooks (a {!policy} record:
    [prefetch] / [on_find] / [on_insert] / [on_evict]); the built-in
    ports of Aggressive and Delay(d) and the history-based competitors
    live in {!Prefetcher}.

    At [window = n] (full trace in view) a ported policy produces a
    schedule byte-identical to its batch twin — pinned by the [Stream]
    oracle class in lib/check across the fuzz corpus.  Memory stays
    O(window + cache) regardless of trace length and of the block ids:
    no full-trace arrays are ever materialized, and blocks are interned
    into dense slots ({!Win_ref}) rather than indexed by id, so sparse
    ids (LBAs, hashes, ids near [max_int]) cost what dense ones do. *)

(** {1 Sources} *)

type source = { name : string; pull : unit -> int option }
(** A pull-based request source.  [pull] returns the next block id, or
    [None] once the trace is exhausted (it is not called again after
    returning [None]). *)

val source : name:string -> (unit -> int option) -> source

val of_array : ?name:string -> int array -> source
val of_list : ?name:string -> int list -> source

val of_reader : ?name:string -> Trace_io.reader -> source
(** Stream requests straight from an open trace file, line by line —
    constant memory even for traces that do not fit in RAM. *)

val take : int -> source -> source
(** [take n src] truncates [src] to its first [n] requests. *)

(** Endless synthetic twins of the {!Workload} generators.  Each
    consumes one [Random.State] in request order with the same sampling
    discipline as its batch counterpart, so [take n] of a twin yields
    exactly the batch generator's length-[n] sequence (a tested
    invariant). *)

val uniform : seed:int -> num_blocks:int -> source
val zipf : seed:int -> alpha:float -> num_blocks:int -> source
val sequential_scan : num_blocks:int -> source
val phase_shift :
  seed:int -> num_blocks:int -> phase_len:int -> working_set:int -> source

(** {1 Engine state, as visible to policies} *)

type t
(** A running streaming engine.  Policies receive it in every hook; the
    accessors below are their whole world — notably there is no access
    to requests at or beyond {!lookahead_end}. *)

(** {1 Policies} *)

type policy = {
  policy_name : string;
  prefetch : t -> unit;
      (** Called at every instant the disk is idle, before the engine's
          demand fetch; may be skipped while it is busy (no fetch can
          start then).  May call {!start_fetch} at most once (the single
          disk). *)
  on_find : t -> block:int -> hit:bool -> unit;
      (** Called exactly once per request, the first instant the cursor
          reaches it — before [prefetch] that instant.  [hit] is
          residency at that first attempt (an in-flight block counts as
          a miss). *)
  on_insert : t -> block:int -> unit;
      (** A fetched block just became resident. *)
  on_evict : t -> block:int -> unit;
      (** A resident block was just dropped. *)
}

val passive_policy : string -> policy
(** All hooks no-ops: pure demand paging (the engine's built-in demand
    fetch does the work).  Use with record update [{ (passive_policy
    name) with prefetch = ... }] for partial overrides. *)

(** {1 Accessors (policy-facing)} *)

val horizon : int
(** Alias of {!Win_ref.horizon}: the next-reference answer for a block
    not referenced within the lookahead window. *)

val cursor : t -> int
(** Requests served so far; the next request is at this position. *)

val time : t -> int
val fetch_time : t -> int
val cache_size : t -> int
val window : t -> int

val lookahead_end : t -> int
(** One past the last known request position (the window edge).
    Knowledge of the request sequence stops here. *)

val request_at : t -> int -> int
(** Block at an absolute position in [[cursor, lookahead_end)).
    @raise Invalid_argument outside the window. *)

val exhausted : t -> bool
(** The source has returned [None]; [lookahead_end] is final. *)

val max_block_seen : t -> int
(** Largest block id pulled so far ([-1] before the first), counting
    requests already consumed.  History policies use it to bound
    speculative predictions to blocks known to exist. *)

val in_cache : t -> int -> bool
val cache_count : t -> int
val disk_busy : t -> bool
val block_in_flight : t -> int -> bool
(** Whether this specific block is currently being fetched. *)

val has_free_slot : t -> bool
(** A fetch could start without eviction: resident blocks plus any
    in-flight fetch leave a slot free. *)

val cache_full : t -> bool
(** [not (has_free_slot t)]. *)

val next_ref : t -> block:int -> from:int -> int
(** First in-window position [>= from] requesting [block], or
    {!horizon}. *)

val prev_ref : t -> block:int -> before:int -> int
(** Last in-window position [< before] requesting [block], or [-1]. *)

val next_missing_pos : t -> int
(** First window position [>= cursor] whose block is neither resident
    nor in flight, or [-1] within the current lookahead.  Amortized
    O(1) via a monotone frontier, mirroring the batch Fast engine;
    allocates nothing. *)

val furthest_cached_block : t -> from:int -> int
(** The resident block whose next in-window reference at or after
    [from] is furthest in the future (unreferenced blocks score
    {!horizon}); ties break towards the smallest block id, matching the
    batch Reference semantics.  [-1] iff the cache is empty.
    {!furthest_cached_next} then returns that reference position.
    Allocates nothing. *)

val furthest_cached_next : t -> int
(** The next in-window reference of the block the last
    {!furthest_cached_block} call returned ([-1] after an empty
    answer). *)

val start_fetch : t -> block:int -> evict:int option -> unit
(** Initiate a fetch at the current instant; the block becomes resident
    {!fetch_time} units later.  [evict] is dropped immediately (firing
    [on_evict]); [None] consumes a free slot.  Raises
    {!Simulate.Internal_error} (component ["stream"]) on an illegal
    fetch: disk busy, block already resident, victim not resident, or
    no free slot without a victim. *)

(** {1 Running} *)

type outcome = {
  policy : string;
  window_used : int;
  stall_time : int;  (** instants the cursor waited on a missing block *)
  elapsed_time : int;  (** total instants: served requests + stalls *)
  served : int;
  fetches : int;
  demand_fetches : int;  (** subset of [fetches] issued by the engine's demand path *)
  refills : int;  (** window refill batches pulled from the source *)
  schedule : Fetch_op.t list option;  (** when [record_schedule] was set *)
}

val run :
  ?record_schedule:bool ->
  ?initial_cache:int list ->
  k:int ->
  fetch_time:int ->
  window:int ->
  source ->
  policy ->
  outcome
(** Drive the source to exhaustion under the policy.  Each decision
    instant runs [tick_completion; on_find; prefetch; demand fetch;
    advance; refill] — the batch loop with the window maintenance
    threaded through it.  While the disk is busy the engine skips ahead
    as the batch Fast engine does: it serves resident cursor blocks
    (firing [on_find] and refilling) in a tight loop and jumps a stall
    run straight to the completion instant (telemetry:
    [stream.clock_skips], [stream.clock_units_skipped]).  The built-in
    demand fetch covers a cursor miss the policy left open (only when
    the disk is idle), so purely speculative policies cannot deadlock;
    for the ported window-omniscient policies it never fires.
    [record_schedule] (default [false]) accumulates the {!Fetch_op.t}
    list — leave it off for endless or huge traces, the engine is
    otherwise constant-memory, O(window + cache).  [initial_cache]
    pre-populates residency (default cold).

    @raise Invalid_argument if [k < 1], [fetch_time < 1], [window < 1],
    the initial cache is invalid, or the source yields a negative id. *)
