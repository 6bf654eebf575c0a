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
   the smallest block id for determinism. *)
let markov () : Stream.policy =
  let succ : (int, (int, int ref) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let prev = ref (-1) in
  let want = ref (-1) in
  let best_successor b =
    match Hashtbl.find_opt succ b with
    | None -> -1
    | Some tbl ->
      let best = ref (-1) and best_n = ref 0 in
      Hashtbl.iter
        (fun s n ->
           if !n > !best_n || (!n = !best_n && (!best < 0 || s < !best)) then begin
             best_n := !n;
             best := s
           end)
        tbl;
      !best
  in
  let on_find _t ~block ~hit:_ =
    if !prev >= 0 then begin
      let tbl =
        match Hashtbl.find_opt succ !prev with
        | Some tbl -> tbl
        | None ->
          let tbl = Hashtbl.create 4 in
          Hashtbl.add succ !prev tbl;
          tbl
      in
      (match Hashtbl.find_opt tbl block with
       | Some n -> incr n
       | None -> Hashtbl.add tbl block (ref 1))
    end;
    prev := block;
    want := best_successor block
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

let names () = List.sort String.compare (Hashtbl.fold (fun n _ acc -> n :: acc) registry [])

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
