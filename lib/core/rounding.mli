(** Rounding an optimal fractional synchronized solution into an integral
    prefetching/caching schedule (Section 3, Lemma 4 / Theorem 4).

    Pipeline: normalize the fractional solution (crossing elimination so
    nested intervals share an endpoint; the paper's properties (1) and (2)
    ordering fetches by earliest next reference and evictions by furthest
    next reference), view it as a process over time via [dist(I)] prefix
    sums, collect for each offset [t] the intervals hit by the times
    [t, t+1, ...], assign evictions with the paper's [Q_t] queue, and emit
    executor operations.  Every mass move is window-checked, a
    skeleton-plus-greedy re-derivation backs the paper-faithful offset
    sampling, and the executor is the final judge of both validity and
    realized stall time. *)

type result = {
  schedule : Fetch_op.schedule;  (** the emitted integral schedule *)
  stats : Simulate.stats;  (** executor-validated timing *)
  lp_value : Rat.t;  (** the fractional optimum (exact) *)
  nominal_stall : int;  (** sum of (F - |I|) over the selected batches *)
  laminar : bool;  (** whether crossing elimination fully succeeded *)
  used_fallback : bool;
      (** true if the greedy baseline was returned: either no candidate
          offset produced a valid schedule, or the baseline's realized
          stall strictly beat the best rounded candidate's *)
  candidates_tried : int;
  extra_slots_allowed : int;  (** 2(D-1) *)
  crossing_rounds : int;
      (** redistribution LPs crossing elimination solved (successes plus
          [stuck_pairs]); stays below {!max_crossing_rounds} *)
  stuck_pairs : int;  (** of those, the rounds whose pair could not be rewritten *)
}

val solve : ?solver:(Lp_problem.t -> Lp_problem.result) -> Instance.t -> result
(** Solve the synchronized LP and round it.  The returned schedule is
    always executor-valid with at most [2(D-1)] extra cache locations;
    on every instance family exercised by the test suite its stall time
    equals the LP optimum and never exceeds the exhaustive no-extra-slot
    optimum (Theorem 4). *)

val stall_time : ?solver:(Lp_problem.t -> Lp_problem.result) -> Instance.t -> int

(**/**)

(* Internals exposed for white-box tests and the debugging tools. *)

module Iv : sig
  type t = Sync_lp.interval = { lo : int; hi : int }

  val compare : t -> t -> int
end

type entry = {
  mutable iv : Iv.t;
  mutable x : Rat.t;
  fetch : (int, Rat.t) Hashtbl.t;
  evict : (int, Rat.t) Hashtbl.t;
}

type norm = {
  aug : Sync_lp.augmented;
  mutable entries : entry list;
  mutable laminar : bool;
  mutable crossing_rounds : int;
  mutable stuck_pairs : int;
}

val of_fractional : Sync_lp.fractional -> norm

val max_crossing_rounds : int
(** The safeguard cap on crossing-elimination rounds (one redistribution
    LP each); reaching it clears [laminar]. *)

val eliminate_crossings : ?on_round:(outer:entry -> inner:entry -> bool -> unit) -> norm -> unit
(** [on_round ~outer ~inner ok] is called after each round with the pair
    tried and whether it was rewritten ([false]: its redistribution LP
    was infeasible and the pair is skipped until the next rewrite). *)

val normalize_orders : norm -> unit

type decomposition = {
  dnorm : norm;
  darr : entry array;
  dist : Rat.t array;
  total : Rat.t;
  fetch_slots : (int * Rat.t * Rat.t) list array array;
}

val decompose : norm -> decomposition
val candidate_ts : decomposition -> Rat.t list
val selection : decomposition -> Rat.t -> (int * Rat.t) list
val nominal_stall : decomposition -> (int * Rat.t) list -> int

type batch = {
  entry_index : int;
  biv : Iv.t;
  fetches : (int * int) list;
  mutable evictions : int list;
}

val assign_evictions : decomposition -> (int * Rat.t) list -> batch list
val emit : Sync_lp.augmented -> batch list -> Fetch_op.schedule
val emit_greedy : Sync_lp.augmented -> Iv.t list -> Fetch_op.schedule
