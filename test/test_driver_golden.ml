(* Golden digests of the batch schedulers' observable output.

   Every line of [driver_golden.digests] is an MD5 over a canonical text
   rendering of what one {!Driver}-based scheduler produced for one
   generated case under one driver engine: the schedule of a plain run,
   then the schedule of a run with telemetry and the event log on, the
   [driver.*] counters that run flushed and its provenance events
   (fetch issue / completion, evictions with their runner-up, frontier
   clamps, clock skips, stall intervals).  A scheduler that raises
   renders its exception instead.

   Cases are the [Ck_gen] corpus.  Single-disk schedulers run on the
   case's one-disk projection; Fixed_horizon, Reverse_aggressive and
   both Parallel_greedy variants run on D = 1..4 (blocks striped
   [b mod D]) and, for parallel cases, on the case's own layout.
   [Paging.min_offline_fast] (and its fold-based twin under the
   reference engine) renders its replacement list.

   [test_driver_equiv] compares the fast engine with the reference one,
   but both share {!Next_ref} and {!Evict_heap}: a bug there moves both
   engines alike and only a recorded digest sees it.  The file was
   recorded once, before the driver's in-flight state, queries and the
   position index were rebuilt without allocation, and is never
   regenerated.  To print the digests of the current code (for a diff,
   not to overwrite the file), or the renderings behind them:

     dune exec test/test_driver_golden.exe -- --print
     dune exec test/test_driver_golden.exe -- --dump *)

let seed = 42
let num_cases = 102

(* [dune runtest] runs in the test directory, [dune exec] in the root. *)
let digest_file =
  if Sys.file_exists "driver_golden.digests" then "driver_golden.digests"
  else Filename.concat "test" "driver_golden.digests"

let counters =
  [ "driver.runs"; "driver.fetches"; "driver.stall_units"; "driver.frontier_advances";
    "driver.frontier_clamps"; "driver.clock_skips"; "driver.clock_units_skipped";
    "driver.heap_pushes"; "driver.heap_stale_pops"; "driver.heap_compactions" ]

let render_op b (f : Fetch_op.t) =
  Printf.bprintf b "(%d,%d,%d,%d,%s)" f.Fetch_op.at_cursor f.Fetch_op.delay f.Fetch_op.disk
    f.Fetch_op.block
    (match f.Fetch_op.evict with None -> "-" | Some v -> string_of_int v)

let opt_int = function None -> "-" | Some v -> string_of_int v

let render_event b = function
  | Event_log.Fetch_issue { time; cursor; block; disk; evict } ->
    Printf.bprintf b "I%d:%d:%d:%d:%s " time cursor block disk (opt_int evict)
  | Event_log.Fetch_complete { time; block; disk } -> Printf.bprintf b "C%d:%d:%d " time block disk
  | Event_log.Evict { time; cursor; block; next_ref; runner_up } ->
    Printf.bprintf b "E%d:%d:%d:%d:%s " time cursor block next_ref
      (match runner_up with None -> "-" | Some (r, k) -> Printf.sprintf "%d/%d" r k)
  | Event_log.Stall_interval { from_time; until_time; cursor; block } ->
    Printf.bprintf b "S%d:%d:%d:%d " from_time until_time cursor block
  | Event_log.Frontier_clamp { time; cursor; from_pos; to_pos; block } ->
    Printf.bprintf b "F%d:%d:%d:%d:%d " time cursor from_pos to_pos block
  | Event_log.Clock_skip { from_time; until_time; cursor } ->
    Printf.bprintf b "K%d:%d:%d " from_time until_time cursor
  | _ -> ()

let render_schedule b sched =
  Buffer.add_string b "sched=";
  List.iter (render_op b) sched;
  Buffer.add_char b '\n'

(* Exceptions are part of the digest. *)
let guarded b f = try f () with e -> Printf.bprintf b "exn %s\n" (Printexc.to_string e)

let instrumented f =
  Telemetry.set_enabled true;
  Event_log.set_enabled true;
  Telemetry.reset ();
  Event_log.clear ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Event_log.set_enabled false)
    f

let render_run b ~label schedule inst =
  Printf.bprintf b "== %s\n" label;
  guarded b (fun () -> render_schedule b (schedule inst));
  instrumented (fun () ->
    guarded b (fun () -> render_schedule b (schedule inst));
    List.iter
      (fun name ->
         match Telemetry.find name with
         | None -> Printf.bprintf b "%s=-\n" name
         | Some v -> Printf.bprintf b "%s=%s\n" name (Format.asprintf "%a" Telemetry.pp_value v))
      counters;
    Buffer.add_string b "events=";
    List.iter (render_event b) (Event_log.contents ());
    Buffer.add_char b '\n')

let render_paging b (r : Paging.result) =
  Printf.bprintf b "misses=%d final=%s\nrepl=" r.Paging.misses
    (String.concat "," (List.map string_of_int r.Paging.final_cache));
  List.iter
    (fun (x : Paging.replacement) ->
       Printf.bprintf b "(%d,%d,%s)" x.Paging.position x.Paging.fetched (opt_int x.Paging.evicted))
    r.Paging.replacements;
  Buffer.add_char b '\n'

let with_disks (inst : Instance.t) d =
  Instance.parallel ~k:inst.Instance.cache_size ~fetch_time:inst.Instance.fetch_time ~num_disks:d
    ~disk_of:(Array.init (Instance.num_blocks inst) (fun b -> b mod d))
    ~initial_cache:inst.Instance.initial_cache inst.Instance.seq

(* The case's layouts: D = 1..4 striped, plus its own when parallel. *)
let layouts (inst : Instance.t) =
  List.map (fun d -> (Printf.sprintf "D%d" d, with_disks inst d)) [ 1; 2; 3; 4 ]
  @ if inst.Instance.num_disks > 1 then [ ("own", inst) ] else []

let online_configs n =
  [ (1, 0); (4, 0); (8, 0); (4, 2); (8, 1); (8, 3); (Stdlib.max 1 n, 0) ]

(* One (name, render) pair per scheduler line of a case. *)
let scheduler_lines (inst : Instance.t) =
  let single = with_disks inst 1 in
  let n = Instance.length inst in
  let d0 = Bounds.delay_opt_d ~f:inst.Instance.fetch_time in
  let one name schedule = (name, fun b -> render_run b ~label:name schedule single) in
  let every_layout name schedule =
    ( name,
      fun b -> List.iter (fun (l, li) -> render_run b ~label:l schedule li) (layouts inst) )
  in
  [ one "aggressive" Aggressive.schedule;
    one "conservative" Conservative.schedule;
    one "delay(0)" (Delay.schedule ~d:0);
    one "delay(1)" (Delay.schedule ~d:1);
    one "delay(d0)" (Delay.schedule ~d:d0);
    one "delay(n)" (Delay.schedule ~d:n);
    one "combination" Combination.schedule;
    ( "online",
      fun b ->
        List.iter
          (fun (lookahead, delay) ->
             render_run b
               ~label:(Printf.sprintf "L%d,d%d" lookahead delay)
               (Online.schedule Online.{ lookahead; delay })
               single)
          (online_configs n) );
    every_layout "fixed-horizon" Fixed_horizon.schedule;
    every_layout "reverse-aggressive" Reverse_aggressive.schedule;
    every_layout "aggressive-D" Parallel_greedy.aggressive_schedule;
    every_layout "conservative-D" Parallel_greedy.conservative_schedule;
    ( "min",
      fun b ->
        guarded b (fun () ->
          render_paging b
            (match Driver.active_engine () with
             | Driver.Fast -> Paging.min_offline_fast single
             | Driver.Reference -> Paging.min_offline single)) ) ]

let engines = [ ("fast", Driver.Fast); ("reference", Driver.Reference) ]

let renderings () =
  List.concat_map
    (fun index ->
       let case = Ck_gen.generate ~seed ~index in
       List.concat_map
         (fun (name, render) ->
            List.map
              (fun (ename, engine) ->
                 let b = Buffer.create 4096 in
                 Driver.with_engine engine (fun () -> render b);
                 ( Printf.sprintf "%03d %s %s %s" index (Ck_gen.tier_name case.Ck_gen.tier) name
                     ename,
                   Buffer.contents b ))
              engines)
         (scheduler_lines case.Ck_gen.inst))
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
    Alcotest.failf "%d of %d digests differ from the recorded scheduler output"
      (List.length ms) (List.length expected)

let () =
  if Array.exists (String.equal "--print") Sys.argv then List.iter print_endline (digest_lines ())
  else if Array.exists (String.equal "--dump") Sys.argv then
    List.iter (fun (key, text) -> Printf.printf "### %s\n%s" key text) (renderings ())
  else
    Alcotest.run "driver-golden"
      [ ( "golden",
          [ Alcotest.test_case "digests match the recorded scheduler output" `Quick test_golden ]
        ) ]
