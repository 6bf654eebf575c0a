(** Allocation-free map from ints to non-negative ints.

    Open addressing with linear probing over one flat int array; at most
    half full, deletion by backward shift.  Keys may be any ints.  Used
    by {!Win_ref}'s interner and by [Prefetcher.markov]'s tables.

    A {e cell} is a position in the table: {!cell} finds the one holding
    a key, or the empty one where the key would go, so a lookup and the
    insert or update after it cost one probe.  A cell stays valid until
    the next {!add_at} or {!remove}. *)

type t

val create : unit -> t

val count : t -> int
(** Keys held. *)

val find : t -> int -> int
(** The key's value, or [-1] if absent. *)

val cell : t -> int -> int
(** The cell holding the key, or the empty cell ending its probe run. *)

val value_at : t -> int -> int
(** The value in a cell, or [-1] if the cell is empty. *)

val set_at : t -> int -> int -> unit
(** [set_at t c v] replaces the value of the key held in cell [c].
    @raise Invalid_argument if [v < 0]. *)

val add_at : t -> int -> int -> int -> unit
(** [add_at t c k v] inserts the absent key [k], where [c = cell t k]
    was taken since the table last changed.
    @raise Invalid_argument if [v < 0]. *)

val remove : t -> int -> unit
(** Remove a key; absent keys are ignored. *)
