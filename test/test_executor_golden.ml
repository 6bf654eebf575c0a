(* Golden digests of the executors' observable output.

   Every line of [executor_golden.digests] is an MD5 over a canonical text
   rendering of everything one executor mode returns for one generated
   case: for each schedule of the case (the [Ck_validity] battery plus four
   perturbed schedules that exercise rejection and degraded-mode paths),
   the full stats, the per-fetch stall attribution, the event list, the
   fault report with its events, the delayed-hit waits, or - for a
   rejection - its reason and time.  The rendering is plain text, never
   [Marshal] bytes, so a refactor that changes only sharing or layout
   leaves the digests alone.

   The file was recorded once, before the executors were merged into one
   event loop, and is never regenerated: the test is the proof that the
   merged loop behaves exactly like the code it replaced.  To print the
   digests of the current code (for a diff, not to overwrite the file), or
   the full renderings behind them (to find what a mismatching line lost):

     dune exec test/test_executor_golden.exe -- --print
     dune exec test/test_executor_golden.exe -- --dump *)

let seed = 42
let num_cases = 102
(* [dune runtest] runs in the test directory, [dune exec] in the root. *)
let digest_file =
  if Sys.file_exists "executor_golden.digests" then "executor_golden.digests"
  else Filename.concat "test" "executor_golden.digests"

(* ------------------------------------------------------------------ *)
(* Canonical rendering. *)

let render_op b (f : Fetch_op.t) =
  Printf.bprintf b "(%d,%d,%d,%d,%s)" f.Fetch_op.at_cursor f.Fetch_op.delay f.Fetch_op.disk
    f.Fetch_op.block
    (match f.Fetch_op.evict with None -> "-" | Some v -> string_of_int v)

let render_event b = function
  | Simulate.Serve { time; index; block } -> Printf.bprintf b "S%d:%d:%d" time index block
  | Simulate.Stall { time } -> Printf.bprintf b "X%d" time
  | Simulate.Fetch_start { time; fetch } ->
    Printf.bprintf b "B%d" time;
    render_op b fetch
  | Simulate.Fetch_complete { time; fetch } ->
    Printf.bprintf b "E%d" time;
    render_op b fetch

let render_stats b (s : Simulate.stats) =
  Printf.bprintf b "stall=%d elapsed=%d started=%d completed=%d peak=%d\n" s.Simulate.stall_time
    s.Simulate.elapsed_time s.Simulate.fetches_started s.Simulate.fetches_completed
    s.Simulate.peak_occupancy;
  Buffer.add_string b "busy=";
  Array.iter (fun x -> Printf.bprintf b "%d," x) s.Simulate.disk_busy;
  Buffer.add_string b "\nevents=";
  List.iter (fun e -> render_event b e; Buffer.add_char b ' ') s.Simulate.events;
  Buffer.add_string b "\nattr=";
  List.iter
    (fun (a : Simulate.fetch_stall) ->
       Printf.bprintf b "%d:" a.Simulate.fetch_index;
       render_op b a.Simulate.fetch;
       Printf.bprintf b ":%d:%d " a.Simulate.involuntary_stall a.Simulate.voluntary_stall)
    s.Simulate.stall_by_fetch;
  Buffer.add_string b "\nocc=";
  List.iter (fun (t, o) -> Printf.bprintf b "%d:%d " t o) s.Simulate.occupancy;
  Buffer.add_char b '\n'

let render_fault_event b = function
  | Faults.Slow { time; disk; block; extra } -> Printf.bprintf b "slow%d:%d:%d:%d" time disk block extra
  | Faults.Fail { time; disk; block; attempt } ->
    Printf.bprintf b "fail%d:%d:%d:%d" time disk block attempt
  | Faults.Retry { time; disk; block; attempt } ->
    Printf.bprintf b "retry%d:%d:%d:%d" time disk block attempt
  | Faults.Give_up { time; disk; block; attempts } ->
    Printf.bprintf b "giveup%d:%d:%d:%d" time disk block attempts
  | Faults.Interrupted { time; disk; block } -> Printf.bprintf b "intr%d:%d:%d" time disk block
  | Faults.Outage_begin { time; disk } -> Printf.bprintf b "down%d:%d" time disk
  | Faults.Outage_end { time; disk } -> Printf.bprintf b "up%d:%d" time disk
  | Faults.Replan { time; cursor } -> Printf.bprintf b "replan%d:%d" time cursor

let render_report b (r : Faults.report) =
  Printf.bprintf b
    "jitter=%d failures=%d retries=%d abandoned=%d deferred=%d interrupts=%d dropped=%d \
     skipped=%d fault_stall=%d replans=%d\nfevents="
    r.Faults.injected_jitter r.Faults.transient_failures r.Faults.retries r.Faults.abandoned
    r.Faults.deferred_starts r.Faults.outage_interrupts r.Faults.dropped_fetches
    r.Faults.skipped_evictions r.Faults.fault_stall r.Faults.replans;
  List.iter (fun e -> render_fault_event b e; Buffer.add_char b ' ') r.Faults.events;
  Buffer.add_char b '\n'

let render_delayed b (d : Delayed.stats) =
  render_stats b d.Delayed.base;
  Printf.bprintf b "hits=%d wait=%d depth=%d\nwaits=" d.Delayed.delayed_hits
    d.Delayed.delayed_wait d.Delayed.max_queue_depth;
  List.iter
    (fun (w : Delayed.wait) ->
       Printf.bprintf b "%d:%d:%d:%d:%d:%d " w.Delayed.req_index w.Delayed.block w.Delayed.disk
         w.Delayed.parked_at w.Delayed.ready_at w.Delayed.queue_depth)
    d.Delayed.waits;
  Buffer.add_char b '\n';
  render_report b d.Delayed.report

let render_result b render = function
  | Ok v -> render b v
  | Error (e : Simulate.error) ->
    Printf.bprintf b "error at=%d reason=%s\n" e.Simulate.at_time e.Simulate.reason

(* Every mode's outcome, exceptions included, is part of the digest. *)
let guarded b f = try f () with e -> Printf.bprintf b "exn %s\n" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Modes. *)

let fault_plans ~index (inst : Instance.t) =
  let f = inst.Instance.fetch_time in
  let seed = 1 + index in
  let outage = { Faults.disk = 0; from_time = 2; until_time = 2 + (2 * f) } in
  [
    ("jitter", Faults.make ~seed ~jitter_prob:0.3 ~max_jitter:(max 1 f) ());
    ("fail", Faults.make ~seed ~fail_prob:0.2 ());
    ("fail-fast", Faults.make ~seed ~fail_prob:0.35 ~retry:{ Faults.backoff = Faults.Fixed 1; max_attempts = 2 } ());
    ("outage", Faults.make ~seed ~outages:[ outage ] ());
    ( "all",
      Faults.make ~seed ~jitter_prob:0.3 ~max_jitter:(max 1 f) ~fail_prob:0.2
        ~outages:[ outage ] () );
  ]

let latency_plans ~index (inst : Instance.t) =
  let f = inst.Instance.fetch_time in
  let seed = 1 + index in
  [
    ("none", Faults.none);
    ("const", Faults.make ~seed ~latency:(Faults.Const f) ());
    ("uniform", Faults.make ~seed ~latency:(Faults.Uniform { lo = max 1 (f / 2); hi = 2 * f }) ());
    ( "pareto",
      Faults.make ~seed ~jitter_prob:0.2 ~max_jitter:2
        ~latency:(Faults.Pareto { xm = max 1 (f / 2); alpha = 1.5; cap = 3 * f })
        () );
  ]

let windows = [ 0; 4; 16 ]

(* Perturbations of the first schedule, for the rejection and
   degraded-mode paths: shifted delays (busy disks, stale evictions),
   a missing middle fetch (deadlocks, unrecoverable runs), a duplicated
   first fetch (fetching a resident or in-flight block, dropped starts)
   and a first eviction turned into a no-evict fetch (capacity). *)
let perturbed = function
  | [] -> []
  | first :: _ as base ->
    let shifted = List.mapi (fun i f -> { f with Fetch_op.delay = f.Fetch_op.delay + (i mod 3) }) base in
    let mid = List.length base / 2 in
    let dropped = List.filteri (fun i _ -> i <> mid) base in
    let duplicated = { first with Fetch_op.delay = first.Fetch_op.delay + 1 } :: base in
    let no_evict =
      let seen = ref false in
      List.map
        (fun f ->
           if (not !seen) && f.Fetch_op.evict <> None then begin
             seen := true;
             { f with Fetch_op.evict = None }
           end
           else f)
        base
    in
    [ ("shifted", shifted); ("dropped", dropped); ("duplicated", duplicated); ("no-evict", no_evict) ]

let schedules (inst : Instance.t) =
  let battery = List.map (fun (name, alg) -> (name, alg inst)) (Ck_validity.algorithms_for inst) in
  battery @ perturbed (snd (List.hd battery))

(* Series the executors gained after the file was recorded; like the
   stream golden's counter list, they are deliberately not part of the
   digest. *)
let added_later = [ "simulate.clock_skips"; "simulate.clock_units_skipped" ]

(* The telemetry series and provenance events of one run, filtered to the
   executors' own names. *)
let render_telemetry b =
  List.iter
    (fun (name, v) ->
       let ours =
         List.exists (fun prefix -> String.starts_with ~prefix name) [ "simulate."; "faults."; "delayed." ]
         && not (List.mem name added_later)
       in
       if ours then Printf.bprintf b "%s=%s\n" name (Format.asprintf "%a" Telemetry.pp_value v))
    (Telemetry.snapshot ());
  Buffer.add_string b (Event_log.to_jsonl (Event_log.contents ()))

let with_telemetry b f =
  Telemetry.set_enabled true;
  Event_log.set_enabled true;
  Telemetry.reset ();
  Event_log.clear ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Event_log.set_enabled false)
    (fun () ->
      guarded b f;
      render_telemetry b)

type mode = string * (Buffer.t -> Instance.t -> Fetch_op.schedule -> unit)

let modes ~index inst : mode list =
  let run_mode name ~record_events ~attribution =
    ( name,
      fun b inst s ->
        render_result b render_stats (Simulate.run ~record_events ~attribution inst s) )
  in
  let faulty_mode (pname, faults) =
    ( "faulty:" ^ pname,
      fun b inst s ->
        render_result b
          (fun b (st, r) -> render_stats b st; render_report b r)
          (Simulate.run_faulty ~record_events:true ~faults inst s) )
  in
  let delayed_mode (pname, faults) window =
    ( Printf.sprintf "delayed:%s:w%d" pname window,
      fun b inst s ->
        render_result b render_delayed
          (Delayed.run ~record_events:true ~attribution:true ~window ~faults inst s) )
  in
  let telemetry (name, m) = ("tel:" ^ name, fun b inst s -> with_telemetry b (fun () -> m b inst s)) in
  let fplans = fault_plans ~index inst and lplans = latency_plans ~index inst in
  let run = run_mode "run" ~record_events:false ~attribution:false in
  let faulty_all = faulty_mode ("all", List.assoc "all" fplans) in
  let delayed_uniform = delayed_mode ("uniform", List.assoc "uniform" lplans) 4 in
  [ run; run_mode "run:events+attr" ~record_events:true ~attribution:true ]
  @ List.map faulty_mode fplans
  @ List.concat_map (fun p -> List.map (delayed_mode p) windows) lplans
  @ List.map telemetry [ run; faulty_all; delayed_uniform ]

(* One (key, rendering) pair per (case, mode); the rendering covers every
   schedule of the case. *)
let renderings () =
  List.concat_map
    (fun index ->
       let case = Ck_gen.generate ~seed ~index in
       let inst = case.Ck_gen.inst in
       let scheds = schedules inst in
       List.map
         (fun (mname, m) ->
            let b = Buffer.create 4096 in
            List.iter
              (fun (sname, s) ->
                 Printf.bprintf b "== %s\n" sname;
                 guarded b (fun () -> m b inst s))
              scheds;
            ( Printf.sprintf "%03d %s %s" index (Ck_gen.tier_name case.Ck_gen.tier) mname,
              Buffer.contents b ))
         (modes ~index inst))
    (List.init num_cases Fun.id)

let digest_lines () =
  List.map
    (fun (key, text) -> Printf.sprintf "%s %s" key (Digest.to_hex (Digest.string text)))
    (renderings ())

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let test_golden () =
  let expected = read_lines digest_file in
  let actual = digest_lines () in
  Alcotest.(check int) "line count" (List.length expected) (List.length actual);
  let mismatches =
    List.filter_map
      (fun (e, a) -> if e = a then None else Some (Printf.sprintf "expected %s\n     got %s" e a))
      (List.combine expected actual)
  in
  match mismatches with
  | [] -> ()
  | ms ->
    List.iteri (fun i m -> if i < 20 then prerr_endline m) ms;
    Alcotest.failf "%d of %d digests differ from the recorded executor output" (List.length ms)
      (List.length expected)

let () =
  if Array.exists (String.equal "--print") Sys.argv then List.iter print_endline (digest_lines ())
  else if Array.exists (String.equal "--dump") Sys.argv then
    List.iter (fun (key, text) -> Printf.printf "### %s\n%s" key text) (renderings ())
  else
    Alcotest.run "executor-golden"
      [ ("golden", [ Alcotest.test_case "digests match the recorded executors" `Quick test_golden ]) ]
