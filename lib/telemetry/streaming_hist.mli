(** Constant-memory streaming histogram (log-bucketed, HDR-style).

    A fixed array of geometric buckets ({!sub} per power-of-two octave)
    plus exact count/sum/min/max tracked online (Welford for
    mean/stddev).  Memory and snapshot cost are independent of the
    number of observations; quantiles carry a relative error bounded by
    {!relative_error} inside the bucketed range [2^-20, 2^44) and are
    always clamped into the exact [min, max].  Observations below the
    range (including zero and negatives) are counted exactly in an
    underflow bucket whose representative value is 0. *)

type t

val create : unit -> t
val reset : t -> unit

val observe : t -> float -> unit
(** O(1): one bucket increment plus the Welford update. *)

val observe_int : t -> int -> unit
(** [observe t (float_of_int v)] without boxing the float. *)

val count : t -> int
val sum : t -> float

val quantile : t -> float -> float
(** Nearest-rank quantile from the buckets, clamped into [min, max];
    0 on an empty histogram.
    @raise Invalid_argument if [q] is outside [[0, 1]]. *)

val summary : t -> Stats.summary
(** Same shape as {!Stats.summarize}: exact count/mean/stddev/min/max,
    bucket-approximated median and p90.  {!Stats.empty} when empty. *)

val buckets : t -> (float * int) list
(** Non-empty buckets as (representative value, count), ascending by
    value; bounded by the fixed bucket count. *)

val relative_error : float
(** Quantile relative-error bound inside the bucketed range (~2.2%). *)

val num_buckets : int
val sub : int
(** Layout constants, exposed for the tests and DESIGN.md. *)
