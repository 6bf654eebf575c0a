(* Constant-memory streaming histogram (log-bucketed, HDR-style).

   Replaces the list-backed histogram that buffered every observation:
   at million-request scale the old representation held O(observations)
   floats per metric and its snapshot sort skewed the very hot paths the
   metric was measuring.  This one is a fixed bucket array - memory and
   snapshot cost are independent of the number of observations - with
   exact count/sum/min/max and quantiles carrying a bounded relative
   error.

   Bucket layout: [sub] = 2^[sub_bits] geometric sub-buckets per octave
   (power-of-two interval), covering octaves [min_oct, max_oct).  An
   observation v in [2^o, 2^(o+1)) with o in range lands in bucket
   (o - min_oct) * sub + floor((v/2^o - 1) * sub); each bucket spans a
   relative width of 2^(1/sub) - 1, so reporting the bucket midpoint
   bounds the relative quantile error by [relative_error] (~2.2% at
   sub_bits = 5).  Observations below 2^min_oct (including zero and any
   negatives) are counted exactly in a dedicated underflow bucket whose
   representative is 0; observations at or above 2^max_oct clamp into
   the top bucket.  min/max are tracked exactly, and every reported
   quantile is clamped into [min, max], so the error bound degrades
   gracefully (to the distance from the clamped edge) even outside the
   bucketed range.

   Mean and standard deviation use Welford's online algorithm - exact
   mean, numerically stable variance - so the {!summary} matches
   {!Stats.summarize} on those fields to floating-point accuracy. *)

let sub_bits = 5
let sub = 1 lsl sub_bits

(* 2^-20 ~ 1e-6 .. 2^44 ~ 1.8e13: covers sub-microsecond span times in
   milliseconds up to stall totals of million-request traces with slack. *)
let min_oct = -20
let max_oct = 44
let num_buckets = (max_oct - min_oct) * sub

(* Half the relative bucket width would be the midpoint bound; quote the
   full width to absorb the nearest-rank rounding in [quantile]. *)
let relative_error = Float.pow 2.0 (1.0 /. float_of_int sub) -. 1.0

(* The float state lives in a float array, stored unboxed: as mutable
   float fields of a record that also holds ints, every update in
   [observe] would allocate a fresh boxed float. *)
type t = {
  counts : int array;  (* geometric buckets; fixed size, never grows *)
  mutable under : int;  (* observations < 2^min_oct, including <= 0 *)
  mutable count : int;
  moments : float array;  (* [mean; m2; minimum; maximum], see below *)
}

(* Welford running mean and sum of squared deviations, exact min/max. *)
let mean_i = 0
let m2_i = 1
let min_i = 2
let max_i = 3

let init_moments a =
  a.(mean_i) <- 0.0;
  a.(m2_i) <- 0.0;
  a.(min_i) <- Float.infinity;
  a.(max_i) <- Float.neg_infinity

let create () =
  let moments = Array.make 4 0.0 in
  init_moments moments;
  { counts = Array.make num_buckets 0; under = 0; count = 0; moments }

let reset t =
  Array.fill t.counts 0 num_buckets 0;
  t.under <- 0;
  t.count <- 0;
  init_moments t.moments

let count t = t.count
let sum t = t.moments.(mean_i) *. float_of_int t.count

(* Bucket index for v >= 2^min_oct; clamps the top octave.  Such a v is
   positive, so its bits are an 11-bit biased exponent (the octave) over
   a 52-bit fraction whose top [sub_bits] bits are the sub-bucket.
   Reading them off the bits is exact and allocates nothing (unlike
   [Float.frexp], which returns a pair); infinities and NaNs carry the
   maximal exponent and clamp into the top bucket with the rest. *)
let[@inline always] bucket_of v =
  let top = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) (52 - sub_bits)) in
  let oct = (top lsr sub_bits) - 1023 in
  if oct >= max_oct then num_buckets - 1
  else ((oct - min_oct) lsl sub_bits) lor (top land (sub - 1))

let bucket_lower idx =
  let oct = min_oct + (idx lsr sub_bits) in
  let s = idx land (sub - 1) in
  Float.ldexp (1.0 +. (float_of_int s /. float_of_int sub)) oct

let representative idx =
  let lower = bucket_lower idx in
  let upper =
    if idx + 1 >= num_buckets then Float.ldexp 1.0 max_oct else bucket_lower (idx + 1)
  in
  (lower +. upper) /. 2.0

let lower_threshold = Float.ldexp 1.0 min_oct

(* Inlined into both entry points so that [observe_int]'s float stays
   unboxed: a float crossing a function call is boxed, two words per
   observation on the hot paths that record ints. *)
let[@inline always] record t v =
  t.count <- t.count + 1;
  let a = t.moments in
  let delta = v -. a.(mean_i) in
  a.(mean_i) <- a.(mean_i) +. (delta /. float_of_int t.count);
  a.(m2_i) <- a.(m2_i) +. (delta *. (v -. a.(mean_i)));
  if v < a.(min_i) then a.(min_i) <- v;
  if v > a.(max_i) then a.(max_i) <- v;
  if v < lower_threshold then t.under <- t.under + 1
  else begin
    let i = bucket_of v in
    t.counts.(i) <- t.counts.(i) + 1
  end

let observe t v = record t v
let observe_int t v = record t (float_of_int v)

let clamp t v = Float.min t.moments.(max_i) (Float.max t.moments.(min_i) v)

(* Nearest-rank quantile over the buckets: the returned value is the
   representative of the bucket holding the order statistic at
   round(q * (count - 1)), clamped into [min, max].  That order
   statistic lies between the floor and ceiling order statistics the
   interpolating {!Stats.percentile} blends, so the result is within
   [relative_error] of that bracket - the property the tests assert. *)
let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Streaming_hist.quantile: q outside [0,1]";
  if t.count = 0 then 0.0
  else begin
    let rank = int_of_float (Float.round (q *. float_of_int (t.count - 1))) in
    if rank < t.under then clamp t 0.0
    else begin
      let cum = ref t.under in
      let result = ref t.moments.(max_i) in
      (try
         for i = 0 to num_buckets - 1 do
           cum := !cum + t.counts.(i);
           if rank < !cum then begin
             result := clamp t (representative i);
             raise Exit
           end
         done
       with Exit -> ());
      !result
    end
  end

let summary t : Stats.summary =
  if t.count = 0 then Stats.empty
  else
    { Stats.count = t.count;
      mean = t.moments.(mean_i);
      stddev = Float.sqrt (t.moments.(m2_i) /. float_of_int t.count);
      minimum = t.moments.(min_i);
      maximum = t.moments.(max_i);
      median = quantile t 0.5;
      p90 = quantile t 0.9 }

(* Non-empty buckets as (representative value, count), ascending; the
   underflow bucket reports representative 0.  Bounded by the fixed
   bucket array, so exports stay O(1) regardless of observations. *)
let buckets t =
  let acc = ref [] in
  for i = num_buckets - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (representative i, t.counts.(i)) :: !acc
  done;
  if t.under > 0 then (0.0, t.under) :: !acc else !acc
