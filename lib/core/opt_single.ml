(* Exact optimal single-disk schedules.

   Albers-Garg-Leonardi (J.ACM 2000) prove that optimal single-disk
   prefetching/caching schedules can be computed in polynomial time, and
   the normalization used in Section 3 of the present paper shows there is
   always an optimal schedule in *greedy-content form*: every fetch loads
   the next missing block and evicts the cached block whose next reference
   is furthest in the future, and fetches start only at decision points
   (instants when the disk is idle).  Under that normalization the only
   remaining choice is WHEN to fetch.

   The search itself lives in {!Opt} (pruned branch-and-bound over the
   (cursor, cache-mask) graph); this module keeps the legacy total API
   and its telemetry series. *)

type outcome = {
  stall : int;
  schedule : Fetch_op.schedule;
}

let max_blocks = Opt.max_blocks
let roll_forward = Opt.roll_forward

let m_solves = Telemetry.counter "opt_single.solves"
let m_states = Telemetry.histogram "opt_single.dp_states"

let solve (inst : Instance.t) : outcome =
  match Opt.solve_single_witness inst with
  | Ok (stall, schedule, stats) ->
    if Telemetry.enabled () then begin
      Telemetry.incr m_solves;
      Telemetry.observe_int m_states stats.Opt.expanded
    end;
    { stall; schedule }
  | Error failure -> raise (Opt.Solver_failure { solver = "Opt_single.solve"; failure })

let stall_time inst = (solve inst).stall
let elapsed_time inst = Instance.length inst + (solve inst).stall
