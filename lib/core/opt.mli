(** Pruned branch-and-bound engine for the exact optima.

    One engine behind {!Opt_single}, {!Opt_exhaustive} and
    {!Opt_parallel}, replacing their memoized recursion /
    [Set.Make]-as-priority-queue Dijkstra with best-first search over a
    monotone {!Bucketq} keyed by accumulated stall, plus three pruning
    rules that leave the returned stall value bit-identical to the
    unpruned searches:

    - {b Incumbent seeding}: the search starts with a feasible upper
      bound - the realized stall of the Aggressive policy rolled out in
      the engine's own state space (single disk) or of
      {!Parallel_greedy.aggressive_schedule} (parallel).  Any node that
      provably cannot beat the incumbent is discarded; if the whole
      frontier dies, the incumbent {e is} the optimum.
    - {b Admissible lower bound}: from a state with cursor [c] and cache
      mask [m], every block referenced at or after [c] and not cached
      (nor in flight) still needs an [F]-unit fetch on its home disk;
      per-disk fetch work beyond the [n - c] remaining service units is
      unavoidable stall.  Nodes with [stall + bound >= incumbent] are
      pruned.
    - {b Cache-mask dominance}: a popped state is discarded when an
      already-settled state at the same cursor (and, in parallel, the
      same in-flight configuration) was reached at no greater stall with
      a superset cache - the superset state can replay every schedule of
      the subset state at no extra cost.  This complements the
      cursor/hole dominance framework of {!Dominance} (Lemma 1), which
      reasons about {e algorithm} states; here it prunes {e search}
      states exactly.

    All searches are deterministic: bucket order is LIFO within a stall
    value and expansion order is fixed. *)

val max_blocks : int
(** = {!Bits.max_mask_bits} (62): cache states are bit masks. *)

val roll_forward : Instance.t -> c:int -> mask:int -> f:int -> int * int
(** [roll_forward inst ~c ~mask ~f] serves forward for [f] time units
    from cursor [c] with cache mask [mask]; returns [(cursor', stall)]. *)

type stats = {
  expanded : int;  (** nodes popped and expanded *)
  pruned : int;  (** successors discarded by the admissible lower bound *)
  dominated : int;  (** nodes discarded by cache-mask dominance *)
  deduped : int;  (** stale queue entries skipped *)
  incumbent_stall : int option;
      (** the seed upper bound, when a greedy incumbent existed *)
  improved : bool;
      (** the search found a schedule strictly better than the incumbent *)
}

type failure =
  | Budget_exhausted of { budget : int; expanded : int }
      (** the node budget ran out before optimality was proven *)
  | Infeasible  (** no feasible schedule exists in the search space *)

exception Solver_failure of { solver : string; failure : failure }
(** Raised by the legacy wrappers ({!Opt_single.solve} and friends),
    which promise a total result; a printer is registered. *)

type outcome = {
  stall : int;  (** minimum achievable stall time *)
  schedule : Fetch_op.schedule option;
      (** witness achieving it (single-disk engines only) *)
  stats : stats;
}

val solve_single :
  ?node_budget:int -> ?free_evict:bool -> Instance.t -> (outcome, failure) result
(** Single-disk optimum over greedy-content schedules.  With
    [free_evict:false] (default) evictions are fixed to the
    furthest-next-reference block - the {!Opt_single} normalization; with
    [free_evict:true] every eviction candidate is branched on - the
    {!Opt_exhaustive} validation mode.  [node_budget] bounds the number
    of expanded nodes (default: unlimited).
    @raise Invalid_argument beyond {!max_blocks} distinct blocks. *)

val solve_single_witness :
  ?node_budget:int ->
  ?free_evict:bool ->
  Instance.t ->
  (int * Fetch_op.schedule * stats, failure) result
(** {!solve_single} with the witness schedule unwrapped: [(stall,
    schedule, stats)], for callers that need the schedule itself. *)

val solve_parallel :
  ?node_budget:int -> ?extra_slots:int -> Instance.t -> (outcome, failure) result
(** Exhaustive parallel-disk optimum (timeline search, per-disk fetches
    in next-reference order, arbitrary evictions) with
    [cache_size + extra_slots] locations.  No witness schedule.
    @raise Invalid_argument when blocks exceed {!max_blocks} or the
    packed (cursor, cache, in-flight) state encoding would overflow. *)

val solve : ?node_budget:int -> Instance.t -> (outcome, failure) result
(** Dispatch on [num_disks]: {!solve_single} for one disk,
    {!solve_parallel} otherwise. *)
