(** Synthetic request-sequence generators.

    The paper proves worst-case bounds and ships no benchmark workloads,
    so the reproduction validates its theorems on families that exercise
    the regimes the bounds distinguish (F << k, F ~ k, F >= k), plus the
    paper's own explicit lower-bound construction (Theorem 2).  All
    generators are deterministic given their seed. *)

(** {1 Request sequences} *)

val uniform : seed:int -> n:int -> num_blocks:int -> int array

val zipf : seed:int -> alpha:float -> n:int -> num_blocks:int -> int array
(** Zipf(alpha) popularity over [0, num_blocks): block [i] has weight
    [1/(i+1)^alpha]. *)

val zipf_sampler : seed:int -> alpha:float -> num_blocks:int -> unit -> int
(** The endless draw behind {!zipf}: [zipf ~n] is its first [n] draws.
    Each draw consumes one float from the seeded state. *)

val sequential_scan : n:int -> num_blocks:int -> int array
(** Cyclic scan: the pattern that motivates prefetching. *)

val loop_pattern : n:int -> loop_len:int -> int array
(** Repeated loop - adversarial for LRU-style caching once [loop_len > k]. *)

val scan_with_hot_set :
  seed:int -> n:int -> scan_blocks:int -> hot_blocks:int -> hot_fraction:float -> int array
(** A long scan interleaved with hits to a small hot set (blocks
    [scan_blocks ..< scan_blocks + hot_blocks]): the database workload of
    the Cao et al. motivation. *)

val lru_stack : seed:int -> n:int -> num_blocks:int -> p:float -> int array
(** LRU-stack locality model: the next request hits stack distance [d]
    with geometric(p) probability - tunable temporal locality. *)

val interleaved_streams : n:int -> num_streams:int -> blocks_per_stream:int -> int array
(** Round-robin interleaving of sequential streams; stream [s] scans
    blocks [s*blocks_per_stream ..]; with a partitioned layout each stream
    lives on its own disk. *)

val phase_shift :
  seed:int -> n:int -> num_blocks:int -> phase_len:int -> working_set:int -> int array
(** Sliding working set: every [phase_len] requests the [working_set]-wide
    window shifts by half its width (wrapping), with skew towards the
    window's low end.  The scale-tier locality pattern.
    @raise Invalid_argument if [phase_len < 1] or [working_set] is not in
    [[1, num_blocks]]. *)

(** {1 The Theorem 2 construction} *)

val theorem2_params : k:int -> fetch_time:int -> int
(** [l = (k-1)/(F-1)].
    @raise Invalid_argument unless [F > 1] and [(F-1) | (k-1)]. *)

val theorem2_round_k : k:int -> fetch_time:int -> int
(** Smallest [k' >= k] with [(F-1) | (k'-1)], for sweeps. *)

val theorem2_lower_bound : k:int -> fetch_time:int -> phases:int -> Instance.t
(** The explicit family on which Aggressive's elapsed-time ratio
    approaches [min (1 + F/(k + (k-1)/(F-1))) 2]: phase [i] requests
    [a_1, b^(i-1)_1..l, a_2, ..., a_(k-l), b^i_1..l] with fresh blocks
    [b^i]; the initial cache is [{a_*} + {b^0_*}].
    @raise Invalid_argument unless [F > 1] and [(F-1) | (k-1)]. *)

(** {1 Disk layouts} *)

val striped_layout : num_blocks:int -> num_disks:int -> int array
val partitioned_layout : num_blocks:int -> num_disks:int -> int array
val random_layout : seed:int -> num_blocks:int -> num_disks:int -> int array

val hot_disk_layout : seed:int -> num_blocks:int -> num_disks:int -> hot_fraction:float -> int array
(** A skewed layout crowding ~[hot_fraction] of blocks onto disk 0. *)

(** {1 Instance assembly} *)

val single_instance : k:int -> fetch_time:int -> int array -> Instance.t
(** Single-disk instance with a warm initial cache. *)

val parallel_instance :
  k:int ->
  fetch_time:int ->
  num_disks:int ->
  layout:(num_blocks:int -> num_disks:int -> int array) ->
  int array ->
  Instance.t

(** {1 Named families for sweeps} *)

type family = {
  name : string;
  generate : seed:int -> n:int -> num_blocks:int -> int array;
}

val families : family list
(** uniform, zipf(0.9), scan, lru_stack(0.5), scan+hot. *)

val scale_families : family list
(** zipf(0.9), scan, phase_shift - the n = 10^5..10^6 tier driven by
    [ipc scale] and the [scale_driver_*] benchmarks.  Kept separate from
    {!families} so the fuzz corpus and sweep pools are unaffected. *)
