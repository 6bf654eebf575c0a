(** Classic (pure) paging algorithms in the demand model: unit-cost misses,
    no overlap, only the eviction decision matters.

    The integrated algorithm Conservative is defined as "perform exactly
    the same replacements as Belady's MIN, fetching at the earliest
    consistent time", so MIN's replacement sequence is a first-class object
    here; LRU and FIFO serve as context baselines and test oracles (MIN
    must never miss more than either). *)

type replacement = {
  position : int;  (** 0-based index of the missed request *)
  fetched : Instance.block;
  evicted : Instance.block option;  (** [None] while the cache is not full *)
}

type result = {
  replacements : replacement list;  (** in request order *)
  misses : int;
  final_cache : Instance.block list;  (** sorted *)
}

val min_offline : Instance.t -> result
(** Belady's MIN: evict the cached block whose next reference is furthest
    in the future (never-again blocks first, ties towards smaller ids). *)

val min_offline_fast : Instance.t -> result
(** Byte-identical to {!min_offline} in O((n + misses) log k): victim
    selection through the lazy-invalidation eviction heap
    ({!Evict_heap}) instead of an O(k) fold with binary searches per
    miss.  Conservative's fast path plans through this; the seed
    [min_offline] remains its equivalence oracle. *)

val min_offline_iter :
  nr:Next_ref.t ->
  Instance.t ->
  on_miss:(position:int -> fetched:int -> evicted:int -> evicted_prev:int -> unit) ->
  unit
(** The {!min_offline_fast} pass without the result list: [on_miss] sees
    each replacement in request order, [evicted = -1] while the cache is
    not full.  [evicted_prev] is the victim's last reference before
    [position] ([Next_ref.prev_before nr evicted position]; [-1] without
    a victim or when it was never requested), tracked by the pass itself.  Reports the same [paging.min.*] counters.  Conservative
    plans through this into flat arrays; [nr] must be
    [Next_ref.of_instance inst], the index it also hands to the driver. *)

val lru : Instance.t -> result
val fifo : Instance.t -> result

val clock : Instance.t -> result
(** CLOCK / second-chance: the classic practical LRU approximation. *)

val marking : ?seed:int -> Instance.t -> result
(** The randomized MARKING algorithm (O(log k)-competitive); deterministic
    given [seed]. *)

val pp_replacement : Format.formatter -> replacement -> unit
