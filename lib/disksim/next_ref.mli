(** Next-reference oracle.

    Every algorithm in the paper (Aggressive's furthest-in-future eviction,
    Conservative's MIN replacements, the LP normalization properties)
    needs "when is block [b] next requested at or after position [i]?".
    Positions are 0-based; the value [n] (one past the sequence) means
    "never again". *)

type t

val build : int array -> num_blocks:int -> t
val of_instance : Instance.t -> t

val infinity_pos : t -> int
(** The "never again" sentinel, i.e. the sequence length. *)

val next_after_same : t -> int -> int
(** [next_after_same t i]: next occurrence of the block at position [i],
    strictly after [i]. *)

val next_at_or_after : t -> int -> int -> int
(** [next_at_or_after t b pos]: smallest position [>= pos] requesting [b]. *)

val next_strictly_after : t -> int -> int -> int

val prev_before : t -> int -> int -> int
(** [prev_before t b pos]: largest position [< pos] requesting [b], or
    [-1] if there is none.  O(log) binary search.  The fast schedulers
    get the same answer without it ([Driver.prev_before] at or past the
    cursor, the victim's previous reference from the MIN pass); the
    Reference engine keeps this query as their oracle. *)

val is_requested_at_or_after : t -> int -> int -> bool
val count : t -> int -> int
val first_request : t -> int -> int
val last_request : t -> int -> int
(** [-1] if the block is never requested. *)
