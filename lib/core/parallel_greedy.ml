(* Greedy baselines for D parallel disks (Kimbrel-Karlin).

   Aggressive-D: whenever a disk is idle, start a prefetch on it for the
   next missing block residing on that disk, provided a cached block exists
   whose next reference is after that miss; evict the
   furthest-next-reference cached block.  Kimbrel & Karlin showed the
   elapsed-time approximation ratio of this strategy degrades to about D.

   Conservative-D: replicate MIN's replacements (as in the single-disk
   Conservative), dispatching each fetch to its block's home disk at the
   earliest consistent time. *)

let aggressive_decide d =
  let inst = Driver.instance d in
  for disk = 0 to inst.Instance.num_disks - 1 do
    if not (Driver.disk_busy d disk) then begin
      let p = Driver.next_missing_on_disk_pos d ~disk in
      if p >= 0 then begin
        let block = inst.Instance.seq.(p) in
        if not (Driver.cache_full d) then Driver.start_fetch d ~disk ~block ~evict:None
        else begin
          let e = Driver.furthest_cached_block d ~from:(Driver.cursor d) in
          if e >= 0 && Driver.furthest_cached_next d > p then
            Driver.start_fetch d ~disk ~block ~evict:(Some e)
        end
      end
    end
  done

let aggressive_schedule (inst : Instance.t) : Fetch_op.schedule =
  Driver.schedule (Driver.run inst ~decide:aggressive_decide)

let aggressive_stats inst = Driver.validate ~name:"Aggressive-D" inst (aggressive_schedule inst)

let aggressive_stall inst = (aggressive_stats inst).Simulate.stall_time

(* Conservative-D: MIN replacements dispatched per disk.

   Each decide dispatches a consecutive prefix of the MIN replacement
   list: stopping at the first non-startable fetch preserves MIN's
   eviction-order invariants (a later replacement may rely on an earlier
   one having happened), while consecutive fetches on different disks
   still start in the same instant and overlap. *)
let conservative_schedule (inst : Instance.t) : Fetch_op.schedule =
  let nr = Next_ref.of_instance inst in
  let p = Conservative.plan ~nr inst in
  let m = Array.length p.Conservative.fetched in
  let next = ref 0 in
  let decide d =
    let blocked = ref false in
    while (not !blocked) && !next < m do
      let r = !next in
      let block = p.Conservative.fetched.(r) in
      let disk = inst.Instance.disk_of.(block) in
      if (not (Driver.disk_busy d disk)) && Driver.cursor d >= p.Conservative.eligible_cursor.(r)
      then begin
        let e = p.Conservative.evicted.(r) in
        Driver.start_fetch d ~disk ~block ~evict:(if e < 0 then None else Some e);
        next := r + 1
      end
      else blocked := true
    done
  in
  Driver.schedule (Driver.run ~nr inst ~decide)

let conservative_stats inst =
  Driver.validate ~name:"Conservative-D" inst (conservative_schedule inst)

let conservative_stall inst = (conservative_stats inst).Simulate.stall_time
