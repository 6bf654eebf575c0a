(** The Conservative algorithm (Cao, Felten, Karlin, Li), single disk.

    Conservative performs exactly the same block replacements as the
    optimal offline paging algorithm MIN (Belady), initiating each fetch
    at the earliest point in time consistent with its eviction: the
    evicted block must not be requested between the eviction and the
    fetched block's miss position.  Its elapsed time is at most twice
    optimal (tight), and it performs the minimum possible number of
    fetches. *)

type plan = {
  fetched : int array;  (** block fetched by replacement [r] *)
  evicted : int array;  (** its victim, or [-1] for a free slot *)
  eligible_cursor : int array;
      (** replacement [r] may start once this many requests are served *)
}
(** MIN's replacement sequence as flat columns, in miss order. *)

val plan : nr:Next_ref.t -> Instance.t -> plan
(** MIN's replacements annotated with earliest start positions.  Also
    used by Conservative-D ({!Parallel_greedy}).  [nr] must be
    [Next_ref.of_instance inst]; callers that also run the {!Driver}
    build it once and pass it to both. *)

val schedule : Instance.t -> Fetch_op.schedule

val stats : Instance.t -> Simulate.stats
(** @raise Failure if the schedule is rejected by the executor (a bug). *)

val elapsed_time : Instance.t -> int
val stall_time : Instance.t -> int

val num_fetches : Instance.t -> int
(** Number of fetches = MIN's miss count (minimal over all schedules). *)
