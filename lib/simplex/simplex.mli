(** Two-phase primal simplex, as a functor over the pivot field, plus the
    hybrid exact driver used throughout the reproduction.

    [Make (Lp_field.Rat_field)] is fully exact (Bland's rule guarantees
    termination); [Make (Lp_field.Float_field)] is the fast path.
    {!solve_exact} combines them: solve in floats, certify the final basis
    over exact rationals with {!Rat_linalg} (primal and dual feasibility),
    and fall back to the pure exact solver on any doubt - so every LP
    value the experiments report is exact. *)

(** Standard form shared by the solvers: minimize [c.x] s.t. [A x = b],
    [x >= 0], [b >= 0], columns [0, nstruct) structural. *)
type standard = {
  nrows : int;
  nstruct : int;
  ncols : int;
  matrix : Rat.t array array;
  srhs : Rat.t array;
  scost : Rat.t array;
  slack_basis : int array;  (** per row: ready-made basic column or -1 *)
  flip_objective : bool;
}

val standardize : Lp_problem.t -> standard

exception Phase1_unbounded
(** Phase 1 found an entering column with no leaving row.  Its objective
    (the artificial mass) is bounded below by 0, so over exact rationals
    this cannot happen; over floats it is tolerance noise.  Raised by
    [Make(F).solve] and {!Revised.Make}'s [solve_std]; the hybrid drivers
    ({!solve_exact}, {!Revised.solve_with_basis}) answer it with their
    exact solver. *)

module Make (F : Lp_field.FIELD) : sig
  type outcome =
    | Solved of {
        values : F.t array;  (** structural variables *)
        objective : F.t;  (** in the original direction *)
        basis : int array;  (** standard-form column per row *)
        nstruct : int;
      }
    | Infeasible
    | Unbounded

  exception Iteration_limit

  val solve : Lp_problem.t -> outcome
  (** @raise Iteration_limit if the safeguard cap is exceeded (never
      observed; would indicate a cycling bug).
      @raise Phase1_unbounded if phase 1 reports an unbounded ray. *)
end

module Float_solver : module type of Make (Lp_field.Float_field)
module Rat_solver : module type of Make (Lp_field.Rat_field)

val solve_pure_exact : Lp_problem.t -> Lp_problem.result
(** Pure rational simplex - the reference solver. *)

val solve_float : Lp_problem.t -> Lp_problem.result
(** Float simplex with coarse rational snapping of the results.
    Approximate; for the ablation study only. *)

val certify_basis : Lp_problem.t -> int array -> Lp_problem.result option
(** Exact certification of a basis: [Some result] iff the basis is
    non-singular, primal feasible and dual feasible over the rationals. *)

type stats = {
  mutable float_solves : int;
  mutable certified : int;
  mutable fallbacks : int;
  mutable pivots : int;  (** total pivots, both fields, both phases *)
  mutable degenerate_pivots : int;  (** pivots with no objective change *)
  mutable bland_switches : int;
      (** Dantzig [->] Bland anti-stalling transitions *)
  mutable refactorizations : int;
      (** revised-simplex basis refactorizations ({!Revised}) *)
  mutable warm_accepts : int;  (** warm-start bases installed successfully *)
  mutable warm_rejects : int;  (** warm-start bases rejected (cold restart) *)
}

val stats : stats
(** Global counters for the solvers, shared with {!Revised} (reported by
    benches, and forwarded to the telemetry registry as [simplex.*] /
    [revised.*] metrics by the hybrid drivers when metrics are enabled).
    The counters accumulate for the whole process: per-run reporting must
    subtract a {!stats_snapshot} taken before the run ({!stats_since}),
    or {!stats_reset} first. *)

val stats_snapshot : unit -> stats
(** An independent copy of the current counters. *)

val stats_reset : unit -> unit
(** Zero all counters. *)

val stats_since : stats -> stats
(** [stats_since snap] is the per-field difference between the current
    counters and the snapshot [snap]. *)

val solve_exact : Lp_problem.t -> Lp_problem.result
(** The hybrid driver: float solve, exact certification, exact fallback. *)

val solve_exact_with :
  float_solve:(Lp_problem.t -> Float_solver.outcome) -> Lp_problem.t -> Lp_problem.result
(** {!solve_exact} over a given float pass ([solve_exact] passes
    [Float_solver.solve]); tests inject float-pass failures through it. *)
