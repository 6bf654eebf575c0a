(** Sliding-window next-reference index for the streaming engine.

    Maintains the request blocks of the lookahead window
    [[lo, filled)) in O(window) memory, with binary-search
    next/previous-reference queries per block — the windowed analogue of
    {!Next_ref}, built incrementally as requests arrive and pruned as
    the cursor consumes them.

    It is also the engine's block interner: each raw block id gets a
    dense {e slot} when first pushed or pinned, and the slot is recycled
    once the block has no in-window position and no pin.  Raw ids may be
    any ints; memory depends on the number of live slots, never on the
    size of the ids.

    All positions are absolute stream indices (0-based). *)

type t

val create : unit -> t

val horizon : int
(** Sentinel ([max_int]) for "not referenced within the window".
    Compares above every real position, mirroring the batch engine's
    one-past-the-end sentinel in eviction comparisons. *)

val push : t -> int -> unit
(** [push t b] appends block [b] at position [filled t], extending the
    window by one. *)

val drop_below : t -> int -> unit
(** [drop_below t cursor] forgets every position below [cursor]
    (amortized O(1) per consumed position). *)

val lo : t -> int
(** Lowest retained position. *)

val filled : t -> int
(** One past the highest pushed position (the window edge). *)

val size : t -> int
(** [filled t - lo t]. *)

val block_at : t -> int -> int
(** Block at an absolute position inside [[lo, filled)).
    @raise Invalid_argument outside the window. *)

val next_at_or_after : t -> int -> from:int -> int
(** First in-window position [>= from] referencing the block, or
    {!horizon}. *)

val prev_before : t -> int -> before:int -> int
(** Last in-window position [< before] referencing the block, or [-1]. *)

(** {1 Slots}

    A slot names a block for as long as it is in the window or pinned;
    after that the slot may be handed to another block. *)

val slot_at : t -> int -> int
(** Slot of the block at an absolute position inside [[lo, filled)).
    @raise Invalid_argument outside the window. *)

val slot_of : t -> int -> int
(** Slot of a raw block id, or [-1] if the block is neither in the
    window nor pinned. *)

val id_of_slot : t -> int -> int
(** Raw block id of a live slot. *)

val slot_next : t -> int -> from:int -> int
(** {!next_at_or_after} by slot. *)

val pin : t -> int -> int
(** [pin t b] keeps [b]'s slot alive (interning [b] if needed) until a
    matching {!unpin}, and returns it.  Pins nest. *)

val unpin : t -> int -> unit
(** Release one pin on a slot; the slot is recycled if that was the last
    pin and the block has no in-window position.
    @raise Invalid_argument if the slot is not pinned. *)

val live_slots : t -> int
(** Slots currently naming a block. *)
