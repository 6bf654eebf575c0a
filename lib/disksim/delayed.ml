(* Delayed hits: the executor with parking switched on.

   The classic executor ({!Simulate.run}) treats a request to a block that
   is already being fetched like any other miss: the processor stalls
   until the fetch completes.  Real storage stacks instead register the
   request on the outstanding fetch - a *delayed hit* (Manohar et al.;
   Jiang & Ma 2025) - and the request pays only the fetch's remaining
   latency while the processor moves on.  [run] is that semantics as one
   parameter of the shared event loop ({!Simulate.exec_delayed}), the wait
   window:

   - Serving keeps the cursor discipline of the paper: during [t, t+1)
     the request at the cursor is served if its block is resident
     (consuming the unit), otherwise the processor stalls - unless the
     block is in flight and the wait window has room, in which case the
     request *parks* on the fetch's per-block wait queue and the cursor
     advances within the same instant, paying zero processor time now
     and being completed when the fetch lands.
   - [window] bounds the number of simultaneously parked requests
     (window = 0 switches parking off).  The bound, together with finite
     fetch durations (no failures or outages are allowed in the plan),
     is the progress guarantee: every parked request is released at its
     supplying fetch's completion, at most the plan's maximum latency
     after parking, and the in-instant park loop is bounded by the
     window.
   - Fetch durations come from the plan's latency distribution (plus
     jitter) via {!Faults.draw}; under [Faults.none] every duration is
     the instance's fixed [F].
   - Accounting: inline serves consume one unit each, parked serves
     consume none, so [elapsed = (n - delayed_hits) + stall_time]; the
     stall attribution partition (involuntary vs voluntary per fetch) is
     the loop's, and each park logs its residual wait and queue depth
     ({!Event_log.Delayed_hit}, streaming histograms).

   Degenerate-plan contract (enforced by the [delayed] fuzz oracle):
   with [window = 0] and a plan whose drawn durations all equal [F]
   ([Faults.none], or [Const F] with no jitter), the returned base stats
   are structurally identical to [Simulate.run]'s for every schedule the
   classic executor accepts.  With [window = 0 && Faults.is_none] the
   loop runs its strict path and rejects exactly like [Simulate.run];
   under any other plan the strict plan-consistency rejections are
   relaxed into degraded-mode behaviour - a fetch that is momentarily
   inapplicable (busy disk, block already resident or in flight, no
   room yet) waits in one global FIFO until the state clears, counted as
   a deferral in the fault report - because the divergence is the plan's
   doing, not the schedule's.  That is the loop's second degraded-mode
   policy; [run_faulty]'s per-disk FIFO drops such fetches instead.
   Draining in armed order keeps the event order of the strict path
   under degenerate timing.

   This module keeps the result types, the argument checks and the
   packaging of the waits; the loop itself lives in {!Simulate}. *)

type wait = {
  req_index : int;  (* request that parked (0-based position in seq) *)
  block : Instance.block;
  disk : int;
  parked_at : int;
  ready_at : int;  (* completion instant of the supplying fetch *)
  queue_depth : int;  (* waiters on that fetch after this one joined *)
}

type stats = {
  base : Simulate.stats;
  delayed_hits : int;  (* requests served by parking on an in-flight fetch *)
  delayed_wait : int;  (* sum of residual waits over parked requests *)
  max_queue_depth : int;
  waits : wait list;  (* chronological *)
  report : Faults.report;
}

let m_runs = Telemetry.counter "delayed.runs"
let m_rejected = Telemetry.counter "delayed.rejected"
let m_hits = Telemetry.counter "delayed.hits"
let m_wait_units = Telemetry.counter "delayed.wait_units"
let m_residual_hist = Telemetry.histogram "delayed.residual_wait"
let m_depth_hist = Telemetry.histogram "delayed.queue_depth"

let run ?(extra_slots = 0) ?(record_events = false) ?(attribution = false) ?(window = 0)
    ?(faults = Faults.none) (inst : Instance.t) (schedule : Fetch_op.schedule) :
  (stats, Simulate.error) Result.t =
  if window < 0 then invalid_arg "Delayed.run: window must be >= 0";
  if faults.Faults.fail_prob > 0.0 || faults.Faults.outages <> [] then
    raise
      (Faults.Invalid_plan
         { field = "faults";
           reason = "delayed-hit executor takes latency/jitter plans only (no failures, no outages)" });
  let delayed_hits = ref 0 in
  let delayed_wait = ref 0 in
  let max_depth = ref 0 in
  let waits = ref [] in
  let on_park ~req_index ~block ~disk ~parked_at ~ready_at ~queue_depth =
    let residual = ready_at - parked_at in
    incr delayed_hits;
    delayed_wait := !delayed_wait + residual;
    if queue_depth > !max_depth then max_depth := queue_depth;
    waits := { req_index; block; disk; parked_at; ready_at; queue_depth } :: !waits;
    if Telemetry.enabled () then begin
      Telemetry.incr m_hits;
      Telemetry.add m_wait_units residual;
      Telemetry.observe_int m_residual_hist residual;
      Telemetry.observe_int m_depth_hist queue_depth
    end
  in
  let result =
    match
      Simulate.exec_delayed ~extra_slots ~record_events ~attribution ~window ~faults ~on_park inst
        schedule
    with
    | Ok (base, report) ->
      Ok
        { base;
          delayed_hits = !delayed_hits;
          delayed_wait = !delayed_wait;
          max_queue_depth = !max_depth;
          waits = List.rev !waits;
          report }
    | Error e -> Error e
  in
  if Telemetry.enabled () then begin
    match result with
    | Ok _ -> Telemetry.incr m_runs
    | Error _ -> Telemetry.incr m_rejected
  end;
  result
