(* Synthetic request-sequence generators.

   The paper proves worst-case bounds and gives no benchmark workloads, so
   the reproduction validates its theorems on families that exercise the
   regimes the bounds distinguish (F << k, F ~ k, F >= k), plus the paper's
   own explicit lower-bound construction (Theorem 2).  All generators are
   deterministic given their seed. *)

let rng seed = Random.State.make [| seed; 0x9e3779b9 |]

(* ------------------------------------------------------------------ *)
(* Request sequences. *)

let uniform ~seed ~n ~num_blocks =
  let st = rng seed in
  Array.init n (fun _ -> Random.State.int st num_blocks)

(* Zipf(alpha) over [0, num_blocks): heavy-tailed popularity, the standard
   stand-in for file/DB access skew. *)
let zipf_sampler ~seed ~alpha ~num_blocks =
  let st = rng seed in
  let weights = Array.init num_blocks (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) alpha) in
  let cdf = Array.make num_blocks 0.0 in
  let total = ref 0.0 in
  Array.iteri
    (fun i w ->
       total := !total +. w;
       cdf.(i) <- !total)
    weights;
  let total = !total in
  (* The answer is the first i with cdf.(i) >= x (the last block if
     rounding leaves none).  A guide table over [m] equal buckets of
     [0, total) gives each draw a start at or below its answer:
     guide.(j) is the first i whose cdf lands in bucket j or later, and
     since the bucket map is monotone, the answer for any x in bucket j
     lands there too.  The forward scan from it then reads about
     num_blocks / m cells, against a log2(num_blocks)-step binary
     search of unpredictable branches. *)
  let m = 4 * num_blocks in
  let scale = float_of_int m /. total in
  let bucket x = Stdlib.min m (int_of_float (x *. scale)) in
  let guide = Array.make (m + 1) (num_blocks - 1) in
  let i = ref 0 in
  for j = 0 to m do
    while !i < num_blocks - 1 && bucket cdf.(!i) < j do
      incr i
    done;
    guide.(j) <- !i
  done;
  fun () ->
    let x = Random.State.float st total in
    let i = ref guide.(bucket x) in
    while !i < num_blocks - 1 && cdf.(!i) < x do
      incr i
    done;
    !i

let zipf ~seed ~alpha ~n ~num_blocks =
  let sample = zipf_sampler ~seed ~alpha ~num_blocks in
  Array.init n (fun _ -> sample ())

(* Cyclic sequential scan over [0, num_blocks), the pattern that motivates
   prefetching (every request a miss for plain caching once
   num_blocks > k). *)
let sequential_scan ~n ~num_blocks = Array.init n (fun i -> i mod num_blocks)

(* Repeated loop over [0, loop_len) - the classic adversarial pattern for
   LRU-style caching when loop_len > k. *)
let loop_pattern ~n ~loop_len = Array.init n (fun i -> i mod loop_len)

(* A long scan interleaved with a small hot set: request the hot set with
   probability [hot_fraction], otherwise take the next scan block.  Models
   the database workloads (index + relation scan) in the Cao et al.
   motivation. *)
let scan_with_hot_set ~seed ~n ~scan_blocks ~hot_blocks ~hot_fraction =
  let st = rng seed in
  let scan_pos = ref 0 in
  Array.init n (fun _ ->
      if Random.State.float st 1.0 < hot_fraction then scan_blocks + Random.State.int st hot_blocks
      else begin
        let b = !scan_pos mod scan_blocks in
        incr scan_pos;
        b
      end)

(* LRU-stack locality model: the next request hits stack distance d with
   probability proportional to geometric(p); distance 1 = most recent.
   Produces tunable temporal locality. *)
let lru_stack ~seed ~n ~num_blocks ~p =
  let st = rng seed in
  let stack = ref (List.init num_blocks (fun i -> i)) in
  let sample_distance () =
    (* geometric truncated to [1, num_blocks] *)
    let rec loop d = if d >= num_blocks || Random.State.float st 1.0 < p then d else loop (d + 1) in
    loop 1
  in
  Array.init n (fun _ ->
      let d = sample_distance () in
      let b = List.nth !stack (d - 1) in
      stack := b :: List.filter (fun x -> x <> b) !stack;
      b)

(* D interleaved sequential streams, the canonical parallel-prefetching
   workload: stream s scans blocks s, s+D, s+2D, ... so with a striped
   layout each stream lives on its own disk. *)
let interleaved_streams ~n ~num_streams ~blocks_per_stream =
  let pos = Array.make num_streams 0 in
  Array.init n (fun i ->
      let s = i mod num_streams in
      let b = (s * blocks_per_stream) + (pos.(s) mod blocks_per_stream) in
      pos.(s) <- pos.(s) + 1;
      b)

(* Phase-shift locality: the working set slides by half its width every
   [phase_len] requests, wrapping around the block space.  Within a
   phase, requests are skewed towards the low end of the window (min of
   two uniform draws), so there is real reuse for the cache and a steady
   stream of compulsory misses for the prefetcher - the scale-tier
   workload whose shifting frontier exercises the driver's monotone
   next-missing cursor and eviction-heap re-keying. *)
let phase_shift ~seed ~n ~num_blocks ~phase_len ~working_set =
  if phase_len < 1 then invalid_arg "Workload.phase_shift: phase_len must be >= 1";
  if working_set < 1 || working_set > num_blocks then
    invalid_arg "Workload.phase_shift: working_set must be in [1, num_blocks]";
  let st = rng seed in
  let stride = Stdlib.max 1 (working_set / 2) in
  Array.init n (fun i ->
      let phase = i / phase_len in
      let offset = phase * stride mod num_blocks in
      let a = Random.State.int st working_set in
      let b = Random.State.int st working_set in
      (offset + Stdlib.min a b) mod num_blocks)

(* ------------------------------------------------------------------ *)
(* Theorem 2: the explicit family on which Aggressive's ratio approaches
   min{1 + F/(k + (k-1)/(F-1)), 2}.

   Requires (F-1) | (k-1); let l = (k-1)/(F-1).  Blocks a_1..a_{k-l} are
   0..k-l-1; phase-i blocks b^i_1..b^i_l (i >= 0) are k-l+i*l .. k-l+(i+1)*l-1.
   Phase i >= 1 requests:  a_1, b^{i-1}_1..b^{i-1}_l, a_2, ..., a_{k-l},
   b^i_1..b^i_l.  The initial cache is {a_1..a_{k-l}} + {b^0_1..b^0_l}. *)

let theorem2_params ~k ~fetch_time =
  let f = fetch_time in
  if f <= 1 then invalid_arg "theorem2: requires F > 1";
  if (k - 1) mod (f - 1) <> 0 then invalid_arg "theorem2: requires (F-1) | (k-1)";
  (k - 1) / (f - 1)

(* Smallest k' >= k with (F-1) | (k'-1); convenience for sweeps. *)
let theorem2_round_k ~k ~fetch_time =
  let f = fetch_time in
  if f <= 1 then invalid_arg "theorem2_round_k: requires F > 1";
  k + ((f - 1 - ((k - 1) mod (f - 1))) mod (f - 1))

let theorem2_lower_bound ~k ~fetch_time ~phases : Instance.t =
  let l = theorem2_params ~k ~fetch_time in
  let a j = j in
  (* a_1..a_{k-l} are blocks 0..k-l-1 *)
  let b i j = (k - l) + (i * l) + j in
  (* b^i_1..b^i_l, j in [0, l) *)
  let buf = Buffer.create 16 in
  ignore buf;
  let seq = ref [] in
  for i = 1 to phases do
    seq := a 0 :: !seq;
    for j = 0 to l - 1 do
      seq := b (i - 1) j :: !seq
    done;
    for j = 1 to k - l - 1 do
      seq := a j :: !seq
    done;
    for j = 0 to l - 1 do
      seq := b i j :: !seq
    done
  done;
  let seq = Array.of_list (List.rev !seq) in
  let initial_cache = List.init (k - l) a @ List.init l (fun j -> b 0 j) in
  Instance.single_disk ~k ~fetch_time ~initial_cache seq

(* ------------------------------------------------------------------ *)
(* Disk layouts for parallel instances. *)

let striped_layout ~num_blocks ~num_disks = Array.init num_blocks (fun b -> b mod num_disks)

let partitioned_layout ~num_blocks ~num_disks =
  let per = (num_blocks + num_disks - 1) / num_disks in
  Array.init num_blocks (fun b -> Stdlib.min (b / per) (num_disks - 1))

let random_layout ~seed ~num_blocks ~num_disks =
  let st = rng seed in
  Array.init num_blocks (fun _ -> Random.State.int st num_disks)

(* A deliberately skewed layout: a fraction of blocks crowd onto disk 0,
   creating the bottleneck that distinguishes good parallel schedules. *)
let hot_disk_layout ~seed ~num_blocks ~num_disks ~hot_fraction =
  let st = rng seed in
  Array.init num_blocks (fun _ ->
      if Random.State.float st 1.0 < hot_fraction then 0
      else 1 + Random.State.int st (Stdlib.max 1 (num_disks - 1)))

(* ------------------------------------------------------------------ *)
(* Instance assembly. *)

let single_instance ~k ~fetch_time seq =
  Instance.single_disk ~k ~fetch_time ~initial_cache:(Instance.warm_initial_cache ~k seq) seq

let parallel_instance ~k ~fetch_time ~num_disks ~layout seq =
  let num_blocks = Array.fold_left Stdlib.max (-1) seq + 1 in
  let disk_of = layout ~num_blocks ~num_disks in
  Instance.parallel ~k ~fetch_time ~num_disks ~disk_of
    ~initial_cache:(Instance.warm_initial_cache ~k seq)
    seq

(* Named single-disk families for sweeps. *)
type family = {
  name : string;
  generate : seed:int -> n:int -> num_blocks:int -> int array;
}

let families =
  [ { name = "uniform"; generate = (fun ~seed ~n ~num_blocks -> uniform ~seed ~n ~num_blocks) };
    { name = "zipf"; generate = (fun ~seed ~n ~num_blocks -> zipf ~seed ~alpha:0.9 ~n ~num_blocks) };
    { name = "scan"; generate = (fun ~seed:_ ~n ~num_blocks -> sequential_scan ~n ~num_blocks) };
    { name = "lru_stack"; generate = (fun ~seed ~n ~num_blocks -> lru_stack ~seed ~n ~num_blocks ~p:0.5) };
    { name = "scan+hot";
      generate =
        (fun ~seed ~n ~num_blocks ->
           let hot = Stdlib.max 1 (num_blocks / 4) in
           scan_with_hot_set ~seed ~n ~scan_blocks:(num_blocks - hot) ~hot_blocks:hot
             ~hot_fraction:0.3) } ]

(* The scale tier (ipc scale, the scale_driver benchmarks): families
   sized for n = 10^5..10^6 request traces.  A separate list - not
   appended to [families] - so the fuzz corpus and the sweep pools stay
   unchanged. *)
let scale_families =
  [ { name = "zipf"; generate = (fun ~seed ~n ~num_blocks -> zipf ~seed ~alpha:0.9 ~n ~num_blocks) };
    { name = "scan"; generate = (fun ~seed:_ ~n ~num_blocks -> sequential_scan ~n ~num_blocks) };
    { name = "phase_shift";
      generate =
        (fun ~seed ~n ~num_blocks ->
           phase_shift ~seed ~n ~num_blocks
             ~phase_len:(Stdlib.max 1 (n / 200))
             ~working_set:(Stdlib.max 4 (num_blocks / 8))) } ]
