(* The Conservative algorithm (Cao et al.), single disk.

   Perform exactly the same block replacements as the optimal offline
   paging algorithm MIN (Belady), initiating each fetch at the earliest
   point in time consistent with the chosen eviction: the evicted block
   must not be requested between the eviction and the fetched block's
   miss position, and the single disk serializes fetches.

   Cao et al.: Conservative's elapsed time is at most twice optimal, and
   its number of fetches is minimal (it never fetches more blocks than any
   feasible schedule). *)

(* MIN's replacements as flat columns, in miss order: replacement [r]
   fetches [fetched.(r)], evicts [evicted.(r)] (-1: a free slot) and may
   start once the cursor reaches [eligible_cursor.(r)]. *)
type plan = {
  fetched : int array;
  evicted : int array;
  eligible_cursor : int array;
}

let plan ~nr (inst : Instance.t) : plan =
  (* Interleaved (fetched, evicted, eligible) triples, doubled as they
     fill. *)
  let buf = ref (Array.make 48 0) and len = ref 0 in
  let add ~position:_ ~fetched ~evicted ~evicted_prev =
    (* [evicted_prev]: the victim's last request strictly before the
       miss position (-1 if none); the eviction may only happen after it
       is served. *)
    let eligible = if evicted < 0 then 0 else evicted_prev + 1 in
    if !len + 3 > Array.length !buf then begin
      let bigger = Array.make (2 * Array.length !buf) 0 in
      Array.blit !buf 0 bigger 0 !len;
      buf := bigger
    end;
    let b = !buf in
    b.(!len) <- fetched;
    b.(!len + 1) <- evicted;
    b.(!len + 2) <- eligible;
    len := !len + 3
  in
  (* The whole cost of Conservative is the MIN precomputation; the decide
     loop just walks the plan.  Gate the heap-based MIN on the driver
     engine so [with_engine Reference] replays the seed fold-based MIN,
     making the equivalence suite cover this planner too. *)
  (match Driver.active_engine () with
   | Driver.Fast -> Paging.min_offline_iter ~nr inst ~on_miss:add
   | Driver.Reference ->
     List.iter
       (fun (r : Paging.replacement) ->
          let evicted = match r.Paging.evicted with Some e -> e | None -> -1 in
          let evicted_prev =
            if evicted < 0 then -1 else Next_ref.prev_before nr evicted r.Paging.position
          in
          add ~position:r.Paging.position ~fetched:r.Paging.fetched ~evicted ~evicted_prev)
       (Paging.min_offline inst).Paging.replacements);
  let b = !buf in
  let column c = Array.init (!len / 3) (fun r -> b.((3 * r) + c)) in
  { fetched = column 0; evicted = column 1; eligible_cursor = column 2 }

(* One position index serves the MIN pass, the plan and the driver. *)
let schedule (inst : Instance.t) : Fetch_op.schedule =
  let nr = Next_ref.of_instance inst in
  let p = plan ~nr inst in
  let next = ref 0 in
  let decide d =
    if not (Driver.disk_busy d 0) then begin
      let r = !next in
      if r < Array.length p.fetched && Driver.cursor d >= p.eligible_cursor.(r) then begin
        let e = p.evicted.(r) in
        Driver.start_fetch d ~block:p.fetched.(r) ~evict:(if e < 0 then None else Some e);
        next := r + 1
      end
    end
  in
  Driver.schedule (Driver.run ~nr inst ~decide)

let stats inst = Driver.validate ~name:"Conservative" inst (schedule inst)

let elapsed_time inst = (stats inst).Simulate.elapsed_time
let stall_time inst = (stats inst).Simulate.stall_time
let num_fetches inst = Array.length (plan ~nr:(Next_ref.of_instance inst) inst).fetched
