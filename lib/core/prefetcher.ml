(* Prefetch policies for the streaming engine, and their registry.

   Two kinds live here:

   - Ports of the paper's offline algorithms to the
     online-with-lookahead world: [aggressive] and [delay ~d] make the
     same decisions as {!Aggressive} / {!Delay} but read next-reference
     information from the bounded window ({!Stream.horizon} past the
     edge).  At [window = n] their schedules are byte-identical to the
     batch twins — lib/check pins this.

   - History-based competitors with no batch counterpart: [obl]
     (one-block lookahead) and [markov] (first-order successor
     prediction, a Mithril-style frequency table).  These only
     speculate; the engine's demand path covers their misses.  Both
     guard speculative fetches behind a pollution rule — fetch into a
     free slot, or evict only a block with no reference left in the
     window — so a bad prediction never displaces a block the window
     proves useful.

   The registry maps names to builders (libCacheSim-style), so drivers
   like [ipc stream] and the fuzzer select policies by name.  Builders
   take [fetch_time] because Delay's default distance d0 depends on it
   (Corollary 1); each [build] call returns a fresh policy — hook state
   is per-run. *)

(* ------------------------------------------------------------------ *)
(* Ported: Aggressive (Cao et al.), windowed. *)

let aggressive () : Stream.policy =
  let prefetch t =
    if not (Stream.disk_busy t) then begin
      let p = Stream.next_missing_pos t in
      if p >= 0 then begin
        let block = Stream.request_at t p in
        if Stream.has_free_slot t then Stream.start_fetch t ~block ~evict:None
        else begin
          let e = Stream.furthest_cached_block t ~from:(Stream.cursor t) in
          (* otherwise every cached block is requested before p *)
          if e >= 0 && Stream.furthest_cached_next t > p then
            Stream.start_fetch t ~block ~evict:(Some e)
        end
      end
    end
  in
  { (Stream.passive_policy "aggressive") with prefetch }

(* ------------------------------------------------------------------ *)
(* Ported: Delay(d), windowed.  Same decision procedure as
   {!Delay.schedule}'s merged-query shape: commit to (block, victim,
   eligible cursor) once, then wait for the cursor to reach
   eligibility.  All positions involved (cursor .. next missing) lie
   inside the window, so the windowed prev/next queries agree with the
   full-trace ones whenever the batch algorithm would look at them. *)

(* The committed fetch as flat ints; [c_block = -1]: nothing committed. *)
type committed = { mutable c_block : int; mutable c_evict : int; mutable c_eligible : int }

let delay ~d () : Stream.policy =
  if d < 0 then invalid_arg "Prefetcher.delay: d must be non-negative";
  let pending = { c_block = -1; c_evict = -1; c_eligible = 0 } in
  let commit t ~j ~evict ~eligible =
    pending.c_block <- Stream.request_at t j;
    pending.c_evict <- evict;
    pending.c_eligible <- eligible
  in
  let commit_victim t ~i ~j b =
    (* Earliest initiation: after the victim's last request before j
       (batch semantics; in-window positions below the cursor have been
       pruned, which the [p >= i] guard absorbs exactly like the batch
       code). *)
    let p = Stream.prev_ref t ~block:b ~before:j in
    commit t ~j ~evict:b ~eligible:(if p >= i then p + 1 else i)
  in
  let prefetch t =
    if not (Stream.disk_busy t) then begin
      if pending.c_block < 0 then begin
        let i = Stream.cursor t in
        let j = Stream.next_missing_pos t in
        if j >= 0 then begin
          if Stream.has_free_slot t then commit t ~j ~evict:(-1) ~eligible:i
          else begin
            let b0 = Stream.furthest_cached_block t ~from:i in
            (* otherwise every cached block is requested before j *)
            if b0 >= 0 && Stream.furthest_cached_next t > j then begin
              let d' = Stdlib.min d (j - i) in
              if d' = 0 then commit_victim t ~i ~j b0
              else begin
                let b = Stream.furthest_cached_block t ~from:(i + d') in
                if b >= 0 then commit_victim t ~i ~j b
              end
            end
          end
        end
      end;
      if pending.c_block >= 0 && Stream.cursor t >= pending.c_eligible then begin
        Stream.start_fetch t ~block:pending.c_block
          ~evict:(if pending.c_evict < 0 then None else Some pending.c_evict);
        pending.c_block <- -1
      end
    end
  in
  { (Stream.passive_policy (Printf.sprintf "delay(%d)" d)) with prefetch }

(* ------------------------------------------------------------------ *)
(* History-based: shared speculative-fetch guard.

   A speculative fetch must not hurt: it waits for an idle disk, leaves
   the disk to the demand path whenever the cursor's own block still
   needs fetching, and displaces only a block the window proves useless
   (no in-window reference).  Predictions are clamped to blocks already
   seen so replayed schedules stay valid against any instance containing
   the trace. *)

let try_speculative t ~want =
  if
    (not (Stream.disk_busy t))
    && want >= 0
    && want <= Stream.max_block_seen t
    && (not (Stream.in_cache t want))
    && Stream.cursor t < Stream.lookahead_end t
    &&
    let cur = Stream.request_at t (Stream.cursor t) in
    Stream.in_cache t cur || Stream.block_in_flight t cur
  then begin
    if Stream.has_free_slot t then Stream.start_fetch t ~block:want ~evict:None
    else begin
      let e = Stream.furthest_cached_block t ~from:(Stream.cursor t) in
      (* otherwise everything cached is still wanted; don't pollute *)
      if e >= 0 && Stream.furthest_cached_next t = Stream.horizon then
        Stream.start_fetch t ~block:want ~evict:(Some e)
    end
  end

(* One-block lookahead: every reference to b predicts b+1 (the classic
   sequential prefetcher).  Strong on scans, noise elsewhere — which is
   exactly what the pollution guard contains. *)
let obl () : Stream.policy =
  let want = ref (-1) in
  let on_find _t ~block ~hit:_ = want := block + 1 in
  let prefetch t = try_speculative t ~want:!want in
  { (Stream.passive_policy "obl") with prefetch; on_find }

(* First-order Markov predictor (Mithril-style frequency mining, one
   level deep): count observed successors per block, prefetch the most
   frequent successor of the block just referenced.  Ties break towards
   the smallest block id for determinism.

   All state is flat ints.  Blocks are interned to dense rows; the
   (prev, succ) counts sit in one table keyed by the packed row pair;
   each row keeps its argmax.  Counts only rise, so when succ s reaches
   count n the argmax changes iff s beats it (n > best_n, or n = best_n
   and s < best): O(1) per request and the answer a full rescan would
   give. *)
let max_rows = 1 lsl 31 (* two rows pack into one non-negative int *)

let markov () : Stream.policy =
  let rows = Int_table.create () in (* block id -> row *)
  let pairs = Int_table.create () in (* (prev row lsl 31) lor row -> count *)
  let best = ref (Array.make 64 (-1)) in (* row -> most frequent successor id, -1: none *)
  let best_n = ref (Array.make 64 0) in (* row -> that successor's count *)
  let nrows = ref 0 in
  let prev = ref (-1) in (* row of the block referenced last *)
  let want = ref (-1) in
  let row_of b =
    let c = Int_table.cell rows b in
    let r = Int_table.value_at rows c in
    if r >= 0 then r
    else begin
      let r = !nrows in
      if r = max_rows then invalid_arg "Prefetcher.markov: more than 2^31 distinct blocks";
      if r = Array.length !best then begin
        best := Array.append !best (Array.make r (-1));
        best_n := Array.append !best_n (Array.make r 0)
      end;
      Int_table.add_at rows c b r;
      nrows := r + 1;
      r
    end
  in
  let on_find _t ~block ~hit:_ =
    let r = row_of block in
    let p = !prev in
    if p >= 0 then begin
      let key = (p lsl 31) lor r in
      let c = Int_table.cell pairs key in
      let seen = Int_table.value_at pairs c in
      let n = if seen < 0 then 1 else seen + 1 in
      if seen < 0 then Int_table.add_at pairs c key n else Int_table.set_at pairs c n;
      let bn = !best_n.(p) in
      if n > bn || (n = bn && block < !best.(p)) then begin
        !best.(p) <- block;
        !best_n.(p) <- n
      end
    end;
    prev := r;
    want := !best.(r)
  in
  let prefetch t = try_speculative t ~want:!want in
  { (Stream.passive_policy "markov") with prefetch; on_find }

(* Pure demand paging: no speculation at all; the engine's demand path
   with furthest-cached eviction does everything.  The baseline every
   prefetcher should beat. *)
let demand () : Stream.policy = Stream.passive_policy "demand"

(* ------------------------------------------------------------------ *)
(* Registry. *)

type entry = { doc : string; build : fetch_time:int -> Stream.policy }

let registry : (string, entry) Hashtbl.t = Hashtbl.create 16

let register ~name ~doc build =
  if Hashtbl.mem registry name then
    invalid_arg (Printf.sprintf "Prefetcher.register: duplicate policy %S" name);
  Hashtbl.replace registry name { doc; build }

let find name = Option.map (fun e -> e.build) (Hashtbl.find_opt registry name)

let builders () =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun n e acc -> (n, e.build) :: acc) registry [])

let names () = List.map fst (builders ())

let all () =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun n e acc -> (n, e.doc) :: acc) registry [])

let () =
  register ~name:"aggressive"
    ~doc:"windowed Aggressive: fetch next missing, evict furthest (Cao et al.)"
    (fun ~fetch_time:_ -> aggressive ());
  register ~name:"delay"
    ~doc:"windowed Delay(d0) with the bound-minimizing distance for this fetch time"
    (fun ~fetch_time -> delay ~d:(Bounds.delay_opt_d ~f:fetch_time) ());
  register ~name:"obl" ~doc:"one-block lookahead: reference to b prefetches b+1"
    (fun ~fetch_time:_ -> obl ());
  register ~name:"markov"
    ~doc:"first-order successor predictor over the observed history (Mithril-style)"
    (fun ~fetch_time:_ -> markov ());
  register ~name:"demand" ~doc:"no prefetching: demand paging with furthest-cached eviction"
    (fun ~fetch_time:_ -> demand ())
