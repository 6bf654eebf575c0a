(* Two-phase primal simplex, written as a functor over the pivot field.

   [Make (Lp_field.Rat_field)] is a fully exact solver (reference
   implementation; termination guaranteed by switching to Bland's rule).
   [Make (Lp_field.Float_field)] is the fast path.  [solve_exact] combines
   them: solve in floats, then certify the final basis exactly with
   {!Rat_linalg}; on any doubt, fall back to the exact solver.  The
   prefetching/caching reproduction always goes through [solve_exact], so
   every reported stall time is backed by exact arithmetic. *)

(* ------------------------------------------------------------------ *)
(* Standard form, shared by all solvers: minimize c.x subject to
   A x = b, x >= 0, b >= 0, where columns [0, nstruct) are the original
   variables and the rest are slack/surplus columns. *)

type standard = {
  nrows : int;
  nstruct : int;
  ncols : int;  (* nstruct + #slack/surplus *)
  matrix : Rat.t array array;  (* nrows x ncols *)
  srhs : Rat.t array;
  scost : Rat.t array;  (* length ncols; minimization *)
  slack_basis : int array;  (* per row: ready-made basic column, or -1 *)
  flip_objective : bool;
}

let standardize (p : Lp_problem.t) : standard =
  let rows = Array.of_list p.Lp_problem.rows in
  let nrows = Array.length rows in
  (* Count slack/surplus columns: one per inequality row. *)
  let n_slack = Array.fold_left (fun acc r -> match r.Lp_problem.relation with Lp_problem.Eq -> acc | _ -> acc + 1) 0 rows in
  let nstruct = p.Lp_problem.num_vars in
  let ncols = nstruct + n_slack in
  let matrix = Array.init nrows (fun _ -> Array.make ncols Rat.zero) in
  let srhs = Array.make nrows Rat.zero in
  let slack_basis = Array.make nrows (-1) in
  let next_slack = ref nstruct in
  Array.iteri
    (fun i r ->
       (* Normalize to rhs >= 0 by negating the whole row if needed. *)
       let flip = Rat.sign r.Lp_problem.rhs < 0 in
       let adjust c = if flip then Rat.neg c else c in
       (* Accumulate, don't overwrite: rows built outside [Lp_problem.Builder]
          may mention the same variable more than once. *)
       List.iter
         (fun (v, c) -> matrix.(i).(v) <- Rat.add matrix.(i).(v) (adjust c))
         r.Lp_problem.coeffs;
       srhs.(i) <- adjust r.Lp_problem.rhs;
       let relation =
         match (r.Lp_problem.relation, flip) with
         | Lp_problem.Eq, _ -> Lp_problem.Eq
         | Lp_problem.Le, false | Lp_problem.Ge, true -> Lp_problem.Le
         | Lp_problem.Ge, false | Lp_problem.Le, true -> Lp_problem.Ge
       in
       match relation with
       | Lp_problem.Le ->
         let s = !next_slack in
         incr next_slack;
         matrix.(i).(s) <- Rat.one;
         slack_basis.(i) <- s
       | Lp_problem.Ge ->
         let s = !next_slack in
         incr next_slack;
         matrix.(i).(s) <- Rat.minus_one
       | Lp_problem.Eq -> ())
    rows;
  let flip_objective = p.Lp_problem.direction = Lp_problem.Maximize in
  let scost = Array.make ncols Rat.zero in
  List.iter
    (fun (v, c) -> scost.(v) <- Rat.add scost.(v) (if flip_objective then Rat.neg c else c))
    p.Lp_problem.objective;
  { nrows; nstruct; ncols; matrix; srhs; scost; slack_basis; flip_objective }

(* ------------------------------------------------------------------ *)
(* Solver statistics.  The int increments live inside the pivot loop but
   are noise next to an O(rows x cols) pivot; they are always on, and the
   hybrid driver forwards them to the telemetry registry when metrics are
   enabled. *)

type stats = {
  mutable float_solves : int;
  mutable certified : int;
  mutable fallbacks : int;
  mutable pivots : int;  (* total pivots, both fields, both phases *)
  mutable degenerate_pivots : int;  (* pivots with no objective change *)
  mutable bland_switches : int;  (* Dantzig -> Bland anti-stalling transitions *)
  mutable refactorizations : int;  (* revised-simplex basis refactorizations *)
  mutable warm_accepts : int;  (* warm-start bases installed successfully *)
  mutable warm_rejects : int;  (* warm-start bases rejected (cold restart) *)
}

let stats =
  { float_solves = 0; certified = 0; fallbacks = 0; pivots = 0; degenerate_pivots = 0;
    bland_switches = 0; refactorizations = 0; warm_accepts = 0; warm_rejects = 0 }

(* The counters above accumulate across the whole process.  Per-run
   reporting (tests, benches, `--stats`-style output) must work in deltas:
   take a snapshot before the run and subtract it afterwards, or reset. *)

let stats_snapshot () =
  { float_solves = stats.float_solves; certified = stats.certified;
    fallbacks = stats.fallbacks; pivots = stats.pivots;
    degenerate_pivots = stats.degenerate_pivots; bland_switches = stats.bland_switches;
    refactorizations = stats.refactorizations; warm_accepts = stats.warm_accepts;
    warm_rejects = stats.warm_rejects }

let stats_reset () =
  stats.float_solves <- 0;
  stats.certified <- 0;
  stats.fallbacks <- 0;
  stats.pivots <- 0;
  stats.degenerate_pivots <- 0;
  stats.bland_switches <- 0;
  stats.refactorizations <- 0;
  stats.warm_accepts <- 0;
  stats.warm_rejects <- 0

let stats_since (s0 : stats) =
  { float_solves = stats.float_solves - s0.float_solves;
    certified = stats.certified - s0.certified;
    fallbacks = stats.fallbacks - s0.fallbacks;
    pivots = stats.pivots - s0.pivots;
    degenerate_pivots = stats.degenerate_pivots - s0.degenerate_pivots;
    bland_switches = stats.bland_switches - s0.bland_switches;
    refactorizations = stats.refactorizations - s0.refactorizations;
    warm_accepts = stats.warm_accepts - s0.warm_accepts;
    warm_rejects = stats.warm_rejects - s0.warm_rejects }

(* ------------------------------------------------------------------ *)

exception Phase1_unbounded

module Make (F : Lp_field.FIELD) = struct
  type outcome =
    | Solved of {
        values : F.t array;  (* structural variables only *)
        objective : F.t;  (* in the original problem's direction *)
        basis : int array;  (* standard-form column per row *)
        nstruct : int;
      }
    | Infeasible
    | Unbounded

  let lt0 x = F.compare x F.zero < 0
  let gt0 x = F.compare x F.zero > 0

  (* Pivot the tableau (rows plus the cost row) on (prow, pcol). *)
  let pivot tableau cost basis prow pcol width =
    let prow_arr = tableau.(prow) in
    let pv = prow_arr.(pcol) in
    if not (F.compare pv F.one = 0) then
      for j = 0 to width - 1 do
        if not (F.is_zero prow_arr.(j)) then prow_arr.(j) <- F.div prow_arr.(j) pv
      done;
    prow_arr.(pcol) <- F.one;
    let eliminate row =
      let f = row.(pcol) in
      if not (F.is_zero f) then begin
        for j = 0 to width - 1 do
          if not (F.is_zero prow_arr.(j)) then row.(j) <- F.sub row.(j) (F.mul f prow_arr.(j))
        done;
        row.(pcol) <- F.zero
      end
    in
    Array.iteri (fun i row -> if i <> prow then eliminate row) tableau;
    eliminate cost;
    basis.(prow) <- pcol

  exception Iteration_limit

  (* Run the simplex loop to optimality on the current canonical tableau.
     [banned.(j)] excludes column j from entering (used for artificials in
     phase 2).  Returns [`Optimal] or [`Unbounded].  Dantzig rule first,
     switching to Bland's rule (guaranteed termination) when degenerate
     stalling is suspected. *)
  let optimize tableau cost basis banned ncols_total =
    let nrows = Array.length tableau in
    let width = ncols_total + 1 in
    let rhs_ix = ncols_total in
    let max_iters = (50 * (nrows + ncols_total)) + 1000 in
    (* Anti-stalling: Dantzig's rule can perform very long runs of
       degenerate pivots on these scheduling LPs.  We monitor the objective
       (the rhs entry of the cost row): after [stall_threshold] pivots with
       no strict improvement we switch to Bland's rule, which cannot cycle,
       and return to Dantzig as soon as the objective strictly improves. *)
    let stall_threshold = (3 * nrows) + 50 in
    let rec loop iters stalled bland =
      if iters > max_iters then raise Iteration_limit;
      (* Entering column. *)
      let entering = ref (-1) in
      (if bland then begin
         (try
            for j = 0 to ncols_total - 1 do
              if (not banned.(j)) && lt0 cost.(j) then begin
                entering := j;
                raise Exit
              end
            done
          with Exit -> ())
       end
       else begin
         let best = ref F.zero in
         for j = 0 to ncols_total - 1 do
           if (not banned.(j)) && F.compare cost.(j) !best < 0 then begin
             best := cost.(j);
             entering := j
           end
         done
       end);
      if !entering < 0 then `Optimal
      else begin
        let j = !entering in
        (* Ratio test: min rhs/entry over entry > 0; ties to smaller basis
           index (lexicographic flavour, pairs with Bland for termination). *)
        let leave = ref (-1) in
        let best_ratio = ref F.zero in
        for i = 0 to nrows - 1 do
          let entry = tableau.(i).(j) in
          if gt0 entry then begin
            let ratio = F.div tableau.(i).(rhs_ix) entry in
            if !leave < 0
            || F.compare ratio !best_ratio < 0
            || (F.compare ratio !best_ratio = 0 && basis.(i) < basis.(!leave))
            then begin
              leave := i;
              best_ratio := ratio
            end
          end
        done;
        if !leave < 0 then `Unbounded
        else begin
          let obj_before = cost.(rhs_ix) in
          pivot tableau cost basis !leave j width;
          stats.pivots <- stats.pivots + 1;
          let improved = F.compare cost.(rhs_ix) obj_before <> 0 in
          if improved then loop (iters + 1) 0 false
          else begin
            stats.degenerate_pivots <- stats.degenerate_pivots + 1;
            let stalled = stalled + 1 in
            let bland' = bland || stalled > stall_threshold in
            if bland' && not bland then stats.bland_switches <- stats.bland_switches + 1;
            loop (iters + 1) stalled bland'
          end
        end
      end
    in
    loop 0 0 false

  (* Build the reduced-cost row for cost vector [c] given the canonical
     tableau: cost.(j) = c_j - sum_i c_{basis i} T_ij, and the negated
     objective value in the rhs slot. *)
  let reduced_costs tableau basis (c : F.t array) ncols_total =
    let width = ncols_total + 1 in
    let cost = Array.make width F.zero in
    Array.blit c 0 cost 0 (Array.length c);
    Array.iteri
      (fun i row ->
         let cb = if basis.(i) < Array.length c then c.(basis.(i)) else F.zero in
         if not (F.is_zero cb) then
           for j = 0 to width - 1 do
             if not (F.is_zero row.(j)) then cost.(j) <- F.sub cost.(j) (F.mul cb row.(j))
           done)
      tableau;
    cost

  let solve (p : Lp_problem.t) : outcome =
    let std = standardize p in
    let nrows = std.nrows in
    (* Artificial columns for rows without a ready slack basis. *)
    let n_artificial = Array.fold_left (fun acc s -> if s < 0 then acc + 1 else acc) 0 std.slack_basis in
    let ncols_total = std.ncols + n_artificial in
    let width = ncols_total + 1 in
    let rhs_ix = ncols_total in
    let tableau =
      Array.init nrows
        (fun i ->
           let row = Array.make width F.zero in
           for j = 0 to std.ncols - 1 do
             let v = std.matrix.(i).(j) in
             if not (Rat.is_zero v) then row.(j) <- F.of_rat v
           done;
           row.(rhs_ix) <- F.of_rat std.srhs.(i);
           row)
    in
    let basis = Array.make nrows (-1) in
    let next_art = ref std.ncols in
    Array.iteri
      (fun i s ->
         if s >= 0 then basis.(i) <- s
         else begin
           let a = !next_art in
           incr next_art;
           tableau.(i).(a) <- F.one;
           basis.(i) <- a
         end)
      std.slack_basis;
    let banned = Array.make ncols_total false in
    let is_artificial j = j >= std.ncols in
    try
      (* Phase 1. *)
      if n_artificial > 0 then begin
        let c1 = Array.make ncols_total F.zero in
        for j = std.ncols to ncols_total - 1 do
          c1.(j) <- F.one
        done;
        let cost = reduced_costs tableau basis c1 ncols_total in
        match optimize tableau cost basis banned ncols_total with
        | `Unbounded ->
          (* The phase-1 objective is bounded below by 0: over exact
             rationals this is unreachable, over floats it is tolerance
             noise that the hybrid driver answers with the exact solver. *)
          raise Phase1_unbounded
        | `Optimal ->
          (* Objective value = -cost.(rhs). *)
          let obj = F.neg cost.(rhs_ix) in
          if gt0 obj then raise Exit (* infeasible *)
      end;
      if n_artificial > 0 then begin
        (* Drive artificials out of the basis where possible; ban them. *)
        for i = 0 to nrows - 1 do
          if is_artificial basis.(i) then begin
            let found = ref (-1) in
            (try
               for j = 0 to std.ncols - 1 do
                 if not (F.is_zero tableau.(i).(j)) then begin
                   found := j;
                   raise Exit
                 end
               done
             with Exit -> ());
            if !found >= 0 then begin
              let cost_dummy = Array.make width F.zero in
              pivot tableau cost_dummy basis i !found width
            end
            (* else: redundant row; the artificial stays basic at value 0. *)
          end
        done;
        for j = std.ncols to ncols_total - 1 do
          banned.(j) <- true
        done
      end;
      (* Phase 2. *)
      let c2 = Array.make ncols_total F.zero in
      for j = 0 to std.ncols - 1 do
        let v = std.scost.(j) in
        if not (Rat.is_zero v) then c2.(j) <- F.of_rat v
      done;
      let cost = reduced_costs tableau basis c2 ncols_total in
      (match optimize tableau cost basis banned ncols_total with
       | `Unbounded -> Unbounded
       | `Optimal ->
         let values = Array.make std.nstruct F.zero in
         Array.iteri
           (fun i b -> if b < std.nstruct then values.(b) <- tableau.(i).(rhs_ix))
           basis;
         let obj = F.neg cost.(rhs_ix) in
         let obj = if std.flip_objective then F.neg obj else obj in
         Solved { values; objective = obj; basis = Array.copy basis; nstruct = std.nstruct })
    with Exit -> Infeasible
end

module Float_solver = Make (Lp_field.Float_field)
module Rat_solver = Make (Lp_field.Rat_field)

(* ------------------------------------------------------------------ *)
(* Public drivers. *)

let result_of_rat_outcome (p : Lp_problem.t) (o : Rat_solver.outcome) : Lp_problem.result =
  match o with
  | Rat_solver.Infeasible -> Lp_problem.Infeasible
  | Rat_solver.Unbounded -> Lp_problem.Unbounded
  | Rat_solver.Solved { values; objective; _ } ->
    ignore p;
    Lp_problem.Optimal { objective_value = objective; values }

(* Pure exact simplex: the reference solver. *)
let solve_pure_exact (p : Lp_problem.t) : Lp_problem.result =
  result_of_rat_outcome p (Rat_solver.solve p)

(* Float simplex with rational reconstruction of the values (approximate;
   for the ablation study only). *)
let solve_float (p : Lp_problem.t) : Lp_problem.result =
  match Float_solver.solve p with
  | Float_solver.Infeasible -> Lp_problem.Infeasible
  | Float_solver.Unbounded -> Lp_problem.Unbounded
  | Float_solver.Solved { values; objective; _ } ->
    let approx x =
      (* Round to a nearby small-denominator rational (denominators in the
         caching LPs divide small interval counts, so 10^6 grid suffices
         for reporting purposes). *)
      let scaled = Float.round (x *. 1e6) in
      Rat.of_ints (int_of_float scaled) 1_000_000
    in
    Lp_problem.Optimal { objective_value = approx objective; values = Array.map approx values }

(* Certify a float basis exactly.  Returns the exact optimal solution if
   the basis is (i) non-singular, (ii) primal feasible and (iii) dual
   feasible over the rationals; [None] otherwise. *)
let certify_basis (p : Lp_problem.t) (basis : int array) : Lp_problem.result option =
  let std = standardize p in
  let m = std.nrows in
  if Array.length basis <> m then None
  else if Array.exists (fun b -> b >= std.ncols) basis then None (* artificial in basis *)
  else begin
    let col j = Array.init m (fun i -> std.matrix.(i).(j)) in
    let bmat = Array.init m (fun i -> Array.init m (fun r -> std.matrix.(i).(basis.(r)))) in
    match Rat_linalg.solve bmat std.srhs with
    | None -> None
    | Some xb ->
      if Array.exists (fun v -> Rat.sign v < 0) xb then None
      else begin
        let cb = Array.init m (fun r -> std.scost.(basis.(r))) in
        match Rat_linalg.solve_transposed bmat cb with
        | None -> None
        | Some y ->
          let in_basis = Array.make std.ncols false in
          Array.iter (fun b -> in_basis.(b) <- true) basis;
          let dual_feasible = ref true in
          for j = 0 to std.ncols - 1 do
            if !dual_feasible && not in_basis.(j) then begin
              let reduced = Rat.sub std.scost.(j) (Rat_linalg.dot y (col j)) in
              if Rat.sign reduced < 0 then dual_feasible := false
            end
          done;
          if not !dual_feasible then None
          else begin
            let values = Array.make std.nstruct Rat.zero in
            Array.iteri (fun r b -> if b < std.nstruct then values.(b) <- xb.(r)) basis;
            match Lp_problem.check_feasible p values with
            | Error _ -> None
            | Ok () ->
              let objective_value = Lp_problem.objective_value p values in
              Some (Lp_problem.Optimal { objective_value; values })
          end
      end
  end

(* Registry handles; mutations are gated on [Telemetry.enabled]. *)
let m_float_solves = Telemetry.counter "simplex.float_solves"
let m_certified = Telemetry.counter "simplex.certified"
let m_fallbacks = Telemetry.counter "simplex.fallbacks"
let m_pivots = Telemetry.counter "simplex.pivots"
let m_degenerate = Telemetry.counter "simplex.degenerate_pivots"
let m_bland = Telemetry.counter "simplex.bland_switches"

(* Hybrid exact solver: float simplex for speed, rational certification for
   exactness, full exact simplex as a fallback. *)
let solve_exact_with ~(float_solve : Lp_problem.t -> Float_solver.outcome) (p : Lp_problem.t) :
    Lp_problem.result =
  let pivots0 = stats.pivots in
  let degenerate0 = stats.degenerate_pivots in
  let bland0 = stats.bland_switches in
  stats.float_solves <- stats.float_solves + 1;
  let certified = ref false in
  let fell_back = ref false in
  let result =
    match float_solve p with
    | exception (Float_solver.Iteration_limit | Phase1_unbounded) ->
      (* Float pivoting failed to terminate (extreme degeneracy) or let
         float noise unbound phase 1: the exact solver's Bland phases are
         guaranteed to terminate, and its phase 1 is bounded. *)
      stats.fallbacks <- stats.fallbacks + 1;
      fell_back := true;
      solve_pure_exact p
    | Float_solver.Solved { basis; _ } ->
      (match certify_basis p basis with
       | Some r ->
         stats.certified <- stats.certified + 1;
         certified := true;
         r
       | None ->
         stats.fallbacks <- stats.fallbacks + 1;
         fell_back := true;
         solve_pure_exact p)
    | Float_solver.Infeasible | Float_solver.Unbounded ->
      stats.fallbacks <- stats.fallbacks + 1;
      fell_back := true;
      solve_pure_exact p
  in
  if Telemetry.enabled () then begin
    (* Report the float/exact/hybrid transition and this solve's share of
       the pivot work (deltas, so nested sub-LP solves are not double
       counted at this layer). *)
    Telemetry.incr m_float_solves;
    if !certified then Telemetry.incr m_certified;
    if !fell_back then Telemetry.incr m_fallbacks;
    Telemetry.add m_pivots (stats.pivots - pivots0);
    Telemetry.add m_degenerate (stats.degenerate_pivots - degenerate0);
    Telemetry.add m_bland (stats.bland_switches - bland0)
  end;
  result

let solve_exact (p : Lp_problem.t) : Lp_problem.result =
  solve_exact_with ~float_solve:Float_solver.solve p
