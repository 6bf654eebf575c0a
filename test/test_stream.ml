(* Streaming engine tests: source twins match the batch generators,
   full-window runs are byte-identical to the batch schedulers (spot
   checks here; the fuzz corpus sweep lives in the Stream oracle class),
   bounded-window schedules replay exactly, and stall responds
   monotonically to lookahead. *)

module S = Stream
module P = Prefetcher

let drain src =
  let rec go acc = match src.S.pull () with None -> List.rev acc | Some b -> go (b :: acc) in
  go []

(* ------------------------------------------------------------------ *)
(* Sources. *)

(* Each streaming twin consumes its RNG in request order exactly like
   the batch generator, so a [take n] prefix equals the batch array. *)
let test_source_twins () =
  let cases =
    [ ("uniform",
       Workload.uniform ~seed:7 ~n:500 ~num_blocks:40,
       S.uniform ~seed:7 ~num_blocks:40);
      ("zipf",
       Workload.zipf ~seed:11 ~alpha:0.9 ~n:500 ~num_blocks:64,
       S.zipf ~seed:11 ~alpha:0.9 ~num_blocks:64);
      ("scan",
       Workload.sequential_scan ~n:500 ~num_blocks:37,
       S.sequential_scan ~num_blocks:37);
      ("phase_shift",
       Workload.phase_shift ~seed:3 ~n:500 ~num_blocks:100 ~phase_len:41 ~working_set:16,
       S.phase_shift ~seed:3 ~num_blocks:100 ~phase_len:41 ~working_set:16) ]
  in
  List.iter
    (fun (name, batch, twin) ->
      Alcotest.(check (list int)) name (Array.to_list batch) (drain (S.take 500 twin)))
    cases

let test_take_and_exhaustion () =
  let src = S.of_list [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "of_list drains" [ 1; 2; 3 ] (drain src);
  Alcotest.(check (option int)) "exhausted source stays exhausted" None (src.S.pull ());
  Alcotest.(check (list int)) "take truncates" [ 0; 1 ]
    (drain (S.take 2 (S.sequential_scan ~num_blocks:9)));
  Alcotest.(check (list int)) "take beyond end" [ 5; 6 ] (drain (S.take 10 (S.of_list [ 5; 6 ])))

(* ------------------------------------------------------------------ *)
(* Registry. *)

let test_registry () =
  Alcotest.(check (list string)) "built-ins present"
    [ "aggressive"; "delay"; "demand"; "markov"; "obl" ]
    (P.names ());
  Alcotest.(check bool) "find hit" true (Option.is_some (P.find "aggressive"));
  Alcotest.(check bool) "find miss" true (Option.is_none (P.find "nope"));
  (match P.register ~name:"aggressive" ~doc:"dup" (fun ~fetch_time:_ -> P.demand ()) with
  | () -> Alcotest.fail "duplicate registration accepted"
  | exception Invalid_argument _ -> ());
  List.iter
    (fun (name, doc) -> Alcotest.(check bool) (name ^ " documented") true (doc <> ""))
    (P.all ())

(* ------------------------------------------------------------------ *)
(* Full-window equivalence (random instances; the ck_gen corpus sweep is
   test_corpus_full_window below and the fuzz oracle in CI). *)

let gen_instance ?(max_n = 24) ?(max_blocks = 8) ?(max_k = 5) ?(max_f = 5) () =
  QCheck2.Gen.(
    let* nblocks = int_range 2 max_blocks in
    let* n = int_range 1 max_n in
    let* seq = array_size (return n) (int_range 0 (nblocks - 1)) in
    let* k = int_range 1 max_k in
    let* f = int_range 1 max_f in
    let init = Instance.warm_initial_cache ~k seq in
    return (Instance.single_disk ~k ~fetch_time:f ~initial_cache:init seq))

let ported =
  [ ("aggressive", (fun () -> P.aggressive ()), fun i -> Aggressive.schedule i);
    ("delay0", (fun () -> P.delay ~d:0 ()), fun i -> Delay.schedule ~d:0 i);
    ("delay1", (fun () -> P.delay ~d:1 ()), fun i -> Delay.schedule ~d:1 i);
    ("delay3", (fun () -> P.delay ~d:3 ()), fun i -> Delay.schedule ~d:3 i) ]

let stream_run ~window pol (inst : Instance.t) =
  S.run ~record_schedule:true ~initial_cache:inst.Instance.initial_cache
    ~k:inst.Instance.cache_size ~fetch_time:inst.Instance.fetch_time ~window
    (S.of_array inst.Instance.seq)
    pol

let prop_full_window_byte_identical =
  QCheck2.Test.make ~count:300 ~name:"streaming at w=n = batch schedule" (gen_instance ())
    (fun inst ->
      let n = Instance.length inst in
      List.for_all
        (fun (name, build, batch_of) ->
          let batch = batch_of inst in
          let out = stream_run ~window:(Stdlib.max 1 n) (build ()) inst in
          if out.S.schedule <> Some batch then
            QCheck2.Test.fail_reportf "%s diverges on %s" name
              (Format.asprintf "%a" Instance.pp inst)
          else if out.S.demand_fetches <> 0 then
            QCheck2.Test.fail_reportf "%s: demand path fired at w=n on %s" name
              (Format.asprintf "%a" Instance.pp inst)
          else true)
        ported)

(* The corpus sweep the issue pins: every ported scheduler, every
   single-disk fuzz case, byte-identical at w=n (plus bounded-window
   replay) via the Stream oracle class. *)
let test_corpus_full_window () =
  for index = 0 to 80 do
    let case = Ck_gen.generate_single_disk ~seed:42 ~index in
    List.iter
      (fun (o : Ck_oracle.t) ->
        match o.Ck_oracle.check case.Ck_gen.inst with
        | Ck_oracle.Pass | Ck_oracle.Skip _ -> ()
        | Ck_oracle.Fail { msg; _ } ->
          Alcotest.failf "%s on corpus case %d (%s): %s" o.Ck_oracle.name index
            case.Ck_gen.descr msg)
      Ck_stream.all
  done

(* ------------------------------------------------------------------ *)
(* Bounded windows: replay + accounting at a random window. *)

let prop_bounded_window_replays =
  QCheck2.Test.make ~count:300 ~name:"bounded-window schedules replay exactly"
    QCheck2.Gen.(pair (gen_instance ()) (int_range 1 24))
    (fun (inst, w) ->
      List.for_all
        (fun pname ->
          let build = Option.get (P.find pname) in
          let out = stream_run ~window:w (build ~fetch_time:inst.Instance.fetch_time) inst in
          let sched = Option.get out.S.schedule in
          match Simulate.run inst sched with
          | Error e ->
            QCheck2.Test.fail_reportf "%s at w=%d rejected at t=%d: %s on %s" pname w
              e.Simulate.at_time e.Simulate.reason
              (Format.asprintf "%a" Instance.pp inst)
          | Ok stats ->
            if
              stats.Simulate.stall_time <> out.S.stall_time
              || stats.Simulate.elapsed_time <> out.S.elapsed_time
            then
              QCheck2.Test.fail_reportf
                "%s at w=%d: stream says stall=%d elapsed=%d, executor stall=%d elapsed=%d on %s"
                pname w out.S.stall_time out.S.elapsed_time stats.Simulate.stall_time
                stats.Simulate.elapsed_time
                (Format.asprintf "%a" Instance.pp inst)
            else true)
        (P.names ()))

(* ------------------------------------------------------------------ *)
(* Window response.

   Pointwise monotonicity (stall non-increasing in w) is empirically
   FALSE for every ported policy - greedy rules can use extra lookahead
   to commit to a worse eviction, the same gap Theorem 1 prices in; a
   probe over the qcheck corpus finds per-step violations for
   aggressive and delay alike (e.g. aggressive on n=13 k=5 F=2 going
   from stall 0 at w=5 to stall 1 at w=6).  What does hold, and is
   pinned here: the window saturates at the trace length (any w >= n is
   byte-identical to w = n), and no window ever beats the offline
   optimum.  The downward *trend* of stall in w is documented as a
   measured table in EXPERIMENTS.md rather than asserted pointwise. *)

let prop_window_saturates =
  QCheck2.Test.make ~count:200 ~name:"windows beyond n are byte-identical to w=n"
    QCheck2.Gen.(pair (gen_instance ()) (int_range 0 30))
    (fun (inst, extra) ->
      let n = Stdlib.max 1 (Instance.length inst) in
      List.for_all
        (fun (name, build, _) ->
          let at_n = stream_run ~window:n (build ()) inst in
          let beyond = stream_run ~window:(n + extra) (build ()) inst in
          if at_n.S.schedule <> beyond.S.schedule then
            QCheck2.Test.fail_reportf "%s: w=%d differs from w=n on %s" name (n + extra)
              (Format.asprintf "%a" Instance.pp inst)
          else true)
        ported)

let prop_never_beats_opt =
  QCheck2.Test.make ~count:150 ~name:"no window beats the offline optimum"
    QCheck2.Gen.(pair (gen_instance ~max_n:16 ~max_blocks:6 ()) (int_range 1 16))
    (fun (inst, w) ->
      let opt = (Opt_single.solve inst).Opt_single.stall in
      List.for_all
        (fun pname ->
          let build = Option.get (P.find pname) in
          let out = stream_run ~window:w (build ~fetch_time:inst.Instance.fetch_time) inst in
          if out.S.stall_time < opt then
            QCheck2.Test.fail_reportf "%s at w=%d: stall %d below OPT %d on %s" pname w
              out.S.stall_time opt
              (Format.asprintf "%a" Instance.pp inst)
          else true)
        (P.names ()))

(* ------------------------------------------------------------------ *)
(* Source contract: once a source has returned [None] the engine never
   pulls it again. *)

let test_no_pull_after_none () =
  List.iter
    (fun (pname, window) ->
      let rest = ref [ 0; 1; 2; 0; 3; 1; 4; 0; 2 ] and ended = ref false in
      let src =
        S.source ~name:"counting" (fun () ->
            if !ended then Alcotest.failf "%s w=%d: source pulled after None" pname window;
            match !rest with
            | [] ->
              ended := true;
              None
            | b :: tl ->
              rest := tl;
              Some b)
      in
      let build = Option.get (P.find pname) in
      let out = S.run ~k:2 ~fetch_time:3 ~window src (build ~fetch_time:3) in
      Alcotest.(check int) (Printf.sprintf "%s w=%d served" pname window) 9 out.S.served)
    (List.concat_map (fun p -> [ (p, 1); (p, 4); (p, 64) ]) (P.names ()))

(* ------------------------------------------------------------------ *)
(* Sparse block ids.  The engine names blocks by interned slots, so
   nothing depends on the size of the ids. *)

(* Strictly increasing ids for blocks [0, n): counting up from a small
   base, or down from [max_int]. *)
let relabelling ~near_top gaps =
  let gaps = Array.of_list gaps in
  let n = Array.length gaps in
  let ids = Array.make n 0 in
  if near_top then begin
    ids.(n - 1) <- max_int - gaps.(n - 1);
    for i = n - 2 downto 0 do
      ids.(i) <- ids.(i + 1) - gaps.(i)
    done
  end
  else begin
    ids.(0) <- gaps.(0) - 1;
    for i = 1 to n - 1 do
      ids.(i) <- ids.(i - 1) + gaps.(i)
    done
  end;
  ids

(* Every policy but [obl], whose b -> b+1 prediction is not invariant
   under relabelling by design. *)
let prop_relabel_invariant =
  QCheck2.Test.make ~count:200 ~name:"order-preserving relabels give relabelled schedules"
    QCheck2.Gen.(
      triple (gen_instance ()) (int_range 1 24)
        (pair bool (list_size (return 8) (int_range 1 (1 lsl 40)))))
    (fun (inst, w, (near_top, gaps)) ->
      let ids = relabelling ~near_top gaps in
      let f b = ids.(b) in
      let relabelled =
        { inst with
          Instance.seq = Array.map f inst.Instance.seq;
          initial_cache = List.map f inst.Instance.initial_cache }
      in
      List.for_all
        (fun pname ->
          let build = Option.get (P.find pname) in
          let ft = inst.Instance.fetch_time in
          let a = stream_run ~window:w (build ~fetch_time:ft) inst in
          let b = stream_run ~window:w (build ~fetch_time:ft) relabelled in
          let mapped =
            Option.map
              (List.map (fun (op : Fetch_op.t) ->
                   { op with Fetch_op.block = f op.Fetch_op.block;
                             evict = Option.map f op.Fetch_op.evict }))
              a.S.schedule
          in
          if
            (a.S.stall_time, a.S.elapsed_time, a.S.fetches)
            <> (b.S.stall_time, b.S.elapsed_time, b.S.fetches)
            || mapped <> b.S.schedule
          then
            QCheck2.Test.fail_reportf "%s at w=%d (near_top=%b): relabelled run differs on %s"
              pname w near_top
              (Format.asprintf "%a" Instance.pp inst)
          else true)
        (List.filter (fun p -> p <> "obl") (P.names ())))

(* A 10^5-request stream with ids spread over [0, 2^50) needs no more
   heap than the same stream with dense ids. *)
let test_sparse_ids_bounded_memory () =
  let n = 100_000 in
  let dense = Workload.zipf ~seed:3 ~alpha:0.9 ~n ~num_blocks:4096 in
  (* An odd multiplier is a bijection modulo 2^50. *)
  let sparse = Array.map (fun b -> ((b * 0x5bd1e995) + 0x3c6ef372) land ((1 lsl 50) - 1)) dense in
  let run seq = S.run ~k:64 ~fetch_time:8 ~window:64 (S.of_array seq) (P.aggressive ()) in
  let top () = (Gc.quick_stat ()).Gc.top_heap_words in
  Gc.compact ();
  let base = top () in
  let d = run dense in
  let top_dense = top () in
  let s = run sparse in
  let top_sparse = top () in
  Alcotest.(check (pair int int)) "same stall and fetches" (d.S.stall_time, d.S.fetches)
    (s.S.stall_time, s.S.fetches);
  let slack = 1 lsl 16 in
  if top_sparse > top_dense + slack then
    Alcotest.failf "sparse ids raised top heap to %d words, dense ids to %d (from %d; slack %d)"
      top_sparse top_dense base slack

(* The CLI streams a trace whose ids are far beyond any array size. *)
let ipc_exe = List.find_opt Sys.file_exists [ "../bin/ipc.exe"; "_build/default/bin/ipc.exe" ]

let test_huge_id_trace_cli () =
  let exe = match ipc_exe with Some e -> e | None -> Alcotest.fail "ipc.exe not built" in
  let trace = Filename.temp_file "huge_ids" ".trace" in
  let out = Filename.temp_file "huge_ids" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove trace; Sys.remove out)
    (fun () ->
      Out_channel.with_open_text trace (fun oc ->
          output_string oc "k 2\nf 3\n";
          output_string oc "seq 1 4000000000000 2 1 4000000000000 3 2 1 4000000000000 5 1\n");
      let code =
        Sys.command
          (Printf.sprintf "%s stream --file %s > %s 2>&1" (Filename.quote exe)
             (Filename.quote trace) (Filename.quote out))
      in
      let text = In_channel.with_open_text out In_channel.input_all in
      if code <> 0 then Alcotest.failf "ipc stream exited %d:\n%s" code text;
      Alcotest.(check bool) ("served all 11 requests:\n" ^ text) true
        (List.exists (String.starts_with ~prefix:"served=11 ") (String.split_on_char '\n' text)))

(* The interner recycles a slot once its block has left the window and
   holds no pin. *)
let test_win_ref_slots () =
  let w = Win_ref.create () in
  let pinned = Win_ref.pin w 7 in
  for i = 0 to 9_999 do
    Win_ref.push w (i * 1_000_000_007);
    Win_ref.drop_below w (i - 7)
  done;
  Alcotest.(check bool) "live slots bounded by window + pins" true (Win_ref.live_slots w <= 9);
  Alcotest.(check int) "pinned block keeps its slot" pinned (Win_ref.slot_of w 7);
  Alcotest.(check int) "raw queries see raw ids" 9_998
    (Win_ref.next_at_or_after w (9_998 * 1_000_000_007) ~from:0);
  Win_ref.unpin w pinned;
  Alcotest.(check int) "unpinned, out of window: recycled" (-1) (Win_ref.slot_of w 7)

(* The interner against a naive model: after every push, drop and
   pin/unpin, each window position's id maps to its slot and back, ids
   outside window and pins have no slot, and live slots count exactly
   the distinct ids held.  The id pool collides in the low bits (powers
   of two apart) and includes negative and extreme ints, so probe runs
   wrap and deletions shift entries back across them. *)
let prop_win_ref_interner =
  let pool = [| 0; 1; 1 lsl 20; 2 lsl 20; 3 lsl 20; 1 lsl 40; max_int; min_int; -1; -7; 4096; 8192 |] in
  QCheck2.Test.make ~count:300 ~name:"win_ref interner = naive id model"
    QCheck2.Gen.(list_size (int_range 1 200) (pair (int_range 0 9) (int_range 0 (Array.length pool - 1))))
    (fun ops ->
       let w = Win_ref.create () in
       let pinned = Hashtbl.create 4 in
       let consistent () =
         let held = Hashtbl.create 16 in
         Hashtbl.iter (fun b _ -> Hashtbl.replace held b ()) pinned;
         let ok = ref true in
         for p = Win_ref.lo w to Win_ref.filled w - 1 do
           let b = Win_ref.block_at w p and s = Win_ref.slot_at w p in
           Hashtbl.replace held b ();
           if Win_ref.id_of_slot w s <> b || Win_ref.slot_of w b <> s then ok := false
         done;
         Array.iter
           (fun b -> if (not (Hashtbl.mem held b)) && Win_ref.slot_of w b <> -1 then ok := false)
           pool;
         !ok && Win_ref.live_slots w = Hashtbl.length held
       in
       List.for_all
         (fun (op, i) ->
            let b = pool.(i) in
            (if op < 6 then Win_ref.push w b
             else if op < 8 then Win_ref.drop_below w (Stdlib.min (Win_ref.filled w) (Win_ref.lo w + 1 + i))
             else if Hashtbl.mem pinned b then begin
               Win_ref.unpin w (Win_ref.slot_of w b);
               Hashtbl.remove pinned b
             end
             else Hashtbl.replace pinned b (Win_ref.pin w b));
            consistent ())
         ops)

(* The successor-table policy as it stood with one [Hashtbl] of
   successor counts per block, rescanned on every request: a reference
   for the incremental argmax. *)
let markov_model () : S.policy =
  let succ : (int, (int, int ref) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let prev = ref (-1) and want = ref (-1) in
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
      match Hashtbl.find_opt tbl block with Some n -> incr n | None -> Hashtbl.add tbl block (ref 1)
    end;
    prev := block;
    want := best_successor block
  in
  { (S.passive_policy "markov") with prefetch = (fun t -> P.try_speculative t ~want:!want); on_find }

(* The flat successor table decides exactly like the model: same
   schedule and outcome.  Ids come from a small pool (so successor
   counts tie and climb) that collides in the low bits and reaches
   [max_int]. *)
let prop_markov_matches_model =
  let pool = [| 0; 1; 2; 3; 1 lsl 20; 2 lsl 20; 3 lsl 20; 1 lsl 40; max_int; max_int - 1; 4096 |] in
  QCheck2.Test.make ~count:300 ~name:"markov = hashtbl successor model"
    QCheck2.Gen.(
      quad
        (list_size (int_range 1 300) (int_range 0 (Array.length pool - 1)))
        (int_range 1 5) (int_range 1 5) (int_range 1 24))
    (fun (ix, k, f, w) ->
       let seq = Array.of_list (List.map (fun i -> pool.(i)) ix) in
       let run pol = S.run ~record_schedule:true ~k ~fetch_time:f ~window:w (S.of_array seq) pol in
       let got = run (P.markov ()) and want = run (markov_model ()) in
       if got <> want then
         QCheck2.Test.fail_reportf "k=%d f=%d w=%d: stall %d vs model %d on [%s]" k f w
           got.S.stall_time want.S.stall_time
           (String.concat " " (Array.to_list (Array.map string_of_int seq)))
       else true)

(* Allocation ceiling for the history policy, mirroring the replay
   ceiling in test_disksim: the successor table is flat int arrays, so
   a request costs the source's [Some] and the engine's own words.
   Deterministic for a fixed trace. *)
let test_markov_minor_words () =
  Telemetry.set_enabled false;
  let n = 100_000 in
  let seq = Workload.phase_shift ~seed:1 ~n ~num_blocks:65_536 ~phase_len:(n / 200) ~working_set:512 in
  let before = Gc.minor_words () in
  let o = S.run ~k:64 ~fetch_time:8 ~window:64 (S.of_array seq) (P.markov ()) in
  let per_request = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check int) "served" n o.S.served;
  if per_request > 10.0 then
    Alcotest.failf "Stream.run under markov allocated %.1f minor words/request (ceiling 10)"
      per_request

(* The event-skipping clock only ever jumps stall runs. *)
let test_clock_skip_counters () =
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled false)
    (fun () ->
      List.iter
        (fun pname ->
          Telemetry.reset ();
          let build = Option.get (P.find pname) in
          let out =
            S.run ~k:8 ~fetch_time:6 ~window:16
              (S.take 5000 (S.zipf ~seed:2 ~alpha:0.8 ~num_blocks:64))
              (build ~fetch_time:6)
          in
          let counter name =
            match Telemetry.find name with
            | Some (Telemetry.Counter v) -> v
            | _ -> Alcotest.failf "%s: counter %s missing" pname name
          in
          let skips = counter "stream.clock_skips" in
          let units = counter "stream.clock_units_skipped" in
          Alcotest.(check int) (pname ^ ": stall counter") out.S.stall_time
            (counter "stream.stall_units");
          Alcotest.(check bool) (pname ^ ": skips happen") true (skips > 0);
          Alcotest.(check bool) (pname ^ ": skipped units <= stall") true
            (skips <= units && units <= out.S.stall_time);
          (* Every stale pop discards an entry some push made. *)
          let pushes = counter "stream.heap_pushes" in
          Alcotest.(check bool) (pname ^ ": heap pushes") true (pushes > 0);
          Alcotest.(check bool) (pname ^ ": stale pops <= pushes") true
            (counter "stream.heap_stale_pops" <= pushes))
        (P.names ()))

(* ------------------------------------------------------------------ *)

let qsuite = List.map QCheck_alcotest.to_alcotest
  [ prop_full_window_byte_identical; prop_bounded_window_replays; prop_window_saturates;
    prop_never_beats_opt; prop_relabel_invariant; prop_win_ref_interner;
    prop_markov_matches_model ]

let () =
  Alcotest.run "stream"
    [ ("sources",
       [ Alcotest.test_case "generator twins" `Quick test_source_twins;
         Alcotest.test_case "take / exhaustion" `Quick test_take_and_exhaustion ]);
      ("registry", [ Alcotest.test_case "registry" `Quick test_registry ]);
      ("engine",
       [ Alcotest.test_case "no pull after None" `Quick test_no_pull_after_none;
         Alcotest.test_case "win_ref slot recycling" `Quick test_win_ref_slots;
         Alcotest.test_case "clock skips within stall" `Quick test_clock_skip_counters;
         Alcotest.test_case "markov allocation ceiling" `Quick test_markov_minor_words ]);
      ("sparse-ids",
       [ Alcotest.test_case "bounded memory at ids < 2^50" `Quick test_sparse_ids_bounded_memory;
         Alcotest.test_case "ipc stream --file with id 4e12" `Quick test_huge_id_trace_cli ]);
      ("equivalence",
       Alcotest.test_case "ck_gen corpus full-window + replay" `Slow test_corpus_full_window
       :: qsuite) ]
