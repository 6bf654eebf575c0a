(* Golden digests of the streaming engine's observable output.

   Every line of [stream_golden.digests] is an MD5 over a canonical text
   rendering of what [Stream.run] produced for one (case, labelling,
   policy) triple, across the lookahead windows {1, 3, 16, n}: the
   outcome fields, the recorded schedule, the [stream.*] telemetry
   counters of the run, and the engine's [Window_refill] / [Fetch_issue]
   / [Fetch_complete] provenance events.  Cases are the [Ck_gen] corpus,
   each run once with its own block ids and once under the
   order-preserving sparse relabelling [b -> b * 1_000_003 + 7].

   The file was recorded once, before the engine moved to interned block
   slots and the event-skipping clock, and is never regenerated: the test
   is the proof that the rebuilt engine makes exactly the decisions of
   the one it replaced.  To print the digests of the current code (for a
   diff, not to overwrite the file), or the renderings behind them:

     dune exec test/test_stream_golden.exe -- --print
     dune exec test/test_stream_golden.exe -- --dump *)

let seed = 42
let num_cases = 102

(* [dune runtest] runs in the test directory, [dune exec] in the root. *)
let digest_file =
  if Sys.file_exists "stream_golden.digests" then "stream_golden.digests"
  else Filename.concat "test" "stream_golden.digests"

(* The counters the engine flushed when the file was recorded; counters
   added later are deliberately not part of the digest. *)
let counters =
  [ "stream.runs"; "stream.requests"; "stream.pulled"; "stream.refills"; "stream.fetches";
    "stream.demand_fetches"; "stream.stall_units" ]

let sparse b = (b * 1_000_003) + 7

let render_op b (f : Fetch_op.t) =
  Printf.bprintf b "(%d,%d,%d,%d,%s)" f.Fetch_op.at_cursor f.Fetch_op.delay f.Fetch_op.disk
    f.Fetch_op.block
    (match f.Fetch_op.evict with None -> "-" | Some v -> string_of_int v)

let render_outcome b (o : Stream.outcome) =
  Printf.bprintf b
    "policy=%s window=%d stall=%d elapsed=%d served=%d fetches=%d demand=%d refills=%d\n"
    o.Stream.policy o.Stream.window_used o.Stream.stall_time o.Stream.elapsed_time o.Stream.served
    o.Stream.fetches o.Stream.demand_fetches o.Stream.refills;
  Buffer.add_string b "sched=";
  (match o.Stream.schedule with
   | None -> Buffer.add_string b "none"
   | Some s -> List.iter (render_op b) s);
  Buffer.add_char b '\n'

let render_telemetry b =
  List.iter
    (fun name ->
       match Telemetry.find name with
       | None -> Printf.bprintf b "%s=-\n" name
       | Some v -> Printf.bprintf b "%s=%s\n" name (Format.asprintf "%a" Telemetry.pp_value v))
    counters;
  Buffer.add_string b "events=";
  List.iter
    (function
      | Event_log.Window_refill { time; cursor; filled; added } ->
        Printf.bprintf b "R%d:%d:%d:%d " time cursor filled added
      | Event_log.Fetch_issue { time; cursor; block; disk; evict } ->
        Printf.bprintf b "I%d:%d:%d:%d:%s " time cursor block disk
          (match evict with None -> "-" | Some e -> string_of_int e)
      | Event_log.Fetch_complete { time; block; disk } ->
        Printf.bprintf b "C%d:%d:%d " time block disk
      | _ -> ())
    (Event_log.contents ());
  Buffer.add_char b '\n'

(* One run with telemetry and the event log on; exceptions are part of
   the digest. *)
let render_run b ~window ~label (inst : Instance.t) seq init build =
  Telemetry.set_enabled true;
  Event_log.set_enabled true;
  Telemetry.reset ();
  Event_log.clear ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Event_log.set_enabled false)
    (fun () ->
       Printf.bprintf b "== %s\n" label;
       (try
          render_outcome b
            (Stream.run ~record_schedule:true ~initial_cache:init ~k:inst.Instance.cache_size
               ~fetch_time:inst.Instance.fetch_time ~window (Stream.of_array seq)
               (build ~fetch_time:inst.Instance.fetch_time))
        with e -> Printf.bprintf b "exn %s\n" (Printexc.to_string e));
       render_telemetry b)

let renderings () =
  List.concat_map
    (fun index ->
       let case = Ck_gen.generate ~seed ~index in
       let inst = case.Ck_gen.inst in
       let n = Instance.length inst in
       let windows = [ ("w1", 1); ("w3", 3); ("w16", 16); ("wn", Stdlib.max 1 n) ] in
       let labellings =
         [ ("dense", inst.Instance.seq, inst.Instance.initial_cache);
           ( "sparse",
             Array.map sparse inst.Instance.seq,
             List.map sparse inst.Instance.initial_cache ) ]
       in
       List.concat_map
         (fun (lname, seq, init) ->
            List.map
              (fun pname ->
                 let build = Option.get (Prefetcher.find pname) in
                 let b = Buffer.create 4096 in
                 List.iter
                   (fun (wname, window) -> render_run b ~window ~label:wname inst seq init build)
                   windows;
                 ( Printf.sprintf "%03d %s %s %s" index (Ck_gen.tier_name case.Ck_gen.tier) lname
                     pname,
                   Buffer.contents b ))
              (Prefetcher.names ()))
         labellings)
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
    Alcotest.failf "%d of %d digests differ from the recorded stream engine output"
      (List.length ms) (List.length expected)

let () =
  if Array.exists (String.equal "--print") Sys.argv then List.iter print_endline (digest_lines ())
  else if Array.exists (String.equal "--dump") Sys.argv then
    List.iter (fun (key, text) -> Printf.printf "### %s\n%s" key text) (renderings ())
  else
    Alcotest.run "stream-golden"
      [ ( "golden",
          [ Alcotest.test_case "digests match the recorded stream engine" `Quick test_golden ] ) ]
