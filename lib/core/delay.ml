(* The Delay(d) family (Section 2 of the paper).

   Delay(0) is exactly Aggressive; Delay(n) is exactly Conservative, so the
   family interpolates between the two classical strategies.  The rule, for
   a fixed non-negative integer d: when the disk is idle, let r_i be the
   next request and r_j the next missing reference.

   - If every cached block is requested before r_j, serve r_i without
     fetching (re-evaluate at the next instant).
   - Otherwise let d' = min{d, j - i} and let b be the cached block whose
     next request is furthest in the future *measured after request
     r_{i+d'-1}* (i.e. as if the decision were delayed d' requests).
     Initiate the fetch for r_j's block at the earliest time after r_{i-1}
     such that b is no longer requested before r_j.

   Theorem 3: ratio(Delay(d)) <= max{(d+F)/F, (d+2F)/(d+F), 3(d+F)/(d+2F)};
   Corollary 1: with d0 = ceil((sqrt3 - 1)F/2) the bound tends to sqrt 3. *)

(* The committed fetch, as flat ints: the block to fetch (the one missed
   at position j; -1 while nothing is committed), its victim (-1 for a
   free slot) and the cursor at which it may start. *)
type pending = {
  mutable block : int;
  mutable evict : int;
  mutable eligible_cursor : int;
}

let decide ~d : Driver.t -> unit =
  if d < 0 then invalid_arg "Delay: d must be non-negative";
  let merge_queries =
    (* Fast path: skip the heap entirely when a free slot decides the
       fetch, and reuse the late-check peek as the victim query when
       d' = 0 (then both ask for the furthest next reference from the
       cursor).  Identical decisions by construction, but keep the seed
       two-query shape as the Reference oracle like the other rebuilt
       schedulers. *)
    match Driver.active_engine () with Driver.Fast -> true | Driver.Reference -> false
  in
  let pending = { block = -1; evict = -1; eligible_cursor = 0 } in
  let commit drv ~j ~evict ~eligible_cursor =
    pending.block <- (Driver.instance drv).Instance.seq.(j);
    pending.evict <- evict;
    pending.eligible_cursor <- eligible_cursor
  in
  let commit_victim drv ~i ~j b =
    (* Earliest initiation: after b's last request before j. *)
    let p = Driver.prev_before drv b j in
    commit drv ~j ~evict:b ~eligible_cursor:(if p >= i then p + 1 else i)
  in
  fun drv ->
    if not (Driver.disk_busy drv 0) then begin
      if pending.block < 0 then begin
        let i = Driver.cursor drv in
        let j = Driver.next_missing_pos drv in
        if j >= 0 then begin
          if not (Driver.cache_full drv) then
            (* Spare capacity: fetch without eviction, no delay needed. *)
            commit drv ~j ~evict:(-1) ~eligible_cursor:i
          else if merge_queries then begin
            let b0 = Driver.furthest_cached_block drv ~from:i in
            if b0 >= 0 && Driver.furthest_cached_next drv > j then begin
              let d' = Stdlib.min d (j - i) in
              if d' = 0 then commit_victim drv ~i ~j b0
              else begin
                let b = Driver.furthest_cached_block drv ~from:(i + d') in
                if b >= 0 then commit_victim drv ~i ~j b
              end
            end
          end
          else begin
            (* Is some cached block requested only at or after position
               j?  Equivalent to the furthest next reference (measured
               from the cursor) landing past j - one heap peek instead
               of a scan over the whole cache. *)
            let exists_late =
              Driver.furthest_cached_block drv ~from:i >= 0
              && Driver.furthest_cached_next drv > j
            in
            if exists_late then begin
              let d' = Stdlib.min d (j - i) in
              let b = Driver.furthest_cached_block drv ~from:(i + d') in
              if b >= 0 then commit_victim drv ~i ~j b
            end
          end
        end
      end;
      if pending.block >= 0 && Driver.cursor drv >= pending.eligible_cursor then begin
        Driver.start_fetch drv ~block:pending.block
          ~evict:(if pending.evict < 0 then None else Some pending.evict);
        pending.block <- -1
      end
    end

let schedule ~d (inst : Instance.t) : Fetch_op.schedule =
  Driver.schedule (Driver.run inst ~decide:(decide ~d))

let stats ~d inst =
  Driver.validate ~name:(Printf.sprintf "Delay(%d)" d) inst (schedule ~d inst)

let elapsed_time ~d inst = (stats ~d inst).Simulate.elapsed_time
let stall_time ~d inst = (stats ~d inst).Simulate.stall_time
