(** Lazy-invalidation max-heap of eviction candidates.

    One live entry per block, keyed by the position of the block's next
    reference; [peek] returns the entry with the largest key, ties broken
    towards the smallest rank - by default the block id itself, exactly
    the winner of the seed driver's ascending-id strict-[>] scan in
    [furthest_cached].  Blocks are non-negative indices; the per-block
    arrays grow past the largest block added.

    [remove] and re-keying [add]s invalidate lazily (a per-block stamp
    bump); superseded entries are discarded when they surface at the top
    ({!peek}, {!top_block}, {!top_key}), and an internal compaction
    keeps the heap at O(live) entries under re-key-heavy workloads.  All
    operations are O(log live) amortized. *)

type t

val create : num_blocks:int -> t

val add : t -> block:int -> key:int -> unit
(** Insert [block] with [key], superseding any previous entry for
    [block] (re-keying is just another [add]).
    @raise Invalid_argument if [key < 0]: [-1] is the internal "no live
    entry" sentinel, so negative keys would corrupt the liveness
    accounting (callers with signed scores must bias them, as Online's
    recency keys do). *)

val add_ranked : t -> block:int -> rank:int -> key:int -> unit
(** {!add} with an explicit tie-break rank: among equal keys the
    smaller rank wins.  For callers whose [block] is a recycled dense
    index standing for some other id (the streaming engine passes the
    raw block id); the rank is stored with the entry, so reusing an
    index never reorders entries pushed before. *)

val remove : t -> block:int -> unit
(** Drop [block]'s live entry, if any (lazy: the heap node dies later). *)

val peek : t -> (int * int) option
(** [(block, key)] with the maximum key (ties: smallest rank), or
    [None] if no live entries remain. *)

val top_block : t -> int
(** The block {!peek} would return, or [-1] if no live entries remain.
    Allocates nothing: hot paths read the top as [top_block] then
    {!top_key} instead of matching an option of a pair. *)

val top_key : t -> int
(** The key {!peek} would return, or [-1] if no live entries remain.
    Both discard superseded entries at the top first, exactly as [peek]
    does (and count them in {!stale_pops}). *)

val mem : t -> int -> bool
val key_of : t -> int -> int
(** The block's live key, or [-1] if it has no live entry (as for any
    index never added, negative ones included). *)

val size : t -> int
(** Number of live entries. *)

val heap_load : t -> int
(** Physical heap length including not-yet-collected stale entries
    (exposed for the lazy-invalidation unit tests). *)

(** {1 Lifetime stats}

    Unconditionally maintained (a plain int increment each); the driver
    flushes them into telemetry counters once per run. *)

val pushes : t -> int
(** Heap pushes, counting both fresh inserts and re-keying [add]s. *)

val stale_pops : t -> int
(** Superseded entries discarded when they surfaced at the top. *)

val compactions : t -> int
(** In-place compactions triggered by the stale-entry bound. *)
