(* Tests for the Gantt renderer and the trace file format. *)

let example2 () =
  Instance.parallel ~k:4 ~fetch_time:4 ~num_disks:2
    ~disk_of:[| 0; 0; 0; 0; 1; 1; 1 |]
    ~initial_cache:[ 0; 1; 4; 5 ]
    [| 0; 1; 4; 5; 2; 6; 3 |]

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec loop i = i + ln <= lh && (String.sub hay i ln = needle || loop (i + 1)) in
  loop 0

let test_gantt_renders () =
  let inst = example2 () in
  let schedule =
    [ Fetch_op.make ~at_cursor:1 ~disk:0 ~block:2 ~evict:(Some 0) ();
      Fetch_op.make ~at_cursor:2 ~disk:1 ~block:6 ~evict:(Some 1) ();
      Fetch_op.make ~at_cursor:4 ~delay:1 ~disk:0 ~block:3 ~evict:(Some 4) () ]
  in
  match Gantt.render inst schedule with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check bool) "has cpu row" true (contains s "cpu");
    Alcotest.(check bool) "has both disks" true (contains s "disk0" && contains s "disk1");
    Alcotest.(check bool) "shows fetch of b2" true (contains s "[b2");
    Alcotest.(check bool) "reports stall 3" true (contains s "stall=3");
    (* The cpu row must contain exactly 3 stall marks and 7 serves. *)
    let cpu_line =
      List.find (fun l -> contains l "cpu") (String.split_on_char '\n' s)
    in
    let count c = String.fold_left (fun acc x -> if x = c then acc + 1 else acc) 0 cpu_line in
    Alcotest.(check int) "3 stalls" 3 (count '.');
    Alcotest.(check int) "7 serves" 7 (count 's')

let test_gantt_rejects_invalid () =
  let inst = example2 () in
  match Gantt.render inst [ Fetch_op.make ~at_cursor:0 ~disk:0 ~block:0 ~evict:None () ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected rejection (fetch of cached block)"

(* Example 2 (warm, two disks) and a cold start, which is written as a
   bare [init] line (a missing one would mean "warm"). *)
let test_trace_roundtrip () =
  List.iter
    (fun inst ->
       let path = Filename.temp_file "ipc_trace" ".txt" in
       Trace_io.save_instance path inst;
       let inst' = Trace_io.load_instance path in
       Sys.remove path;
       Alcotest.(check bool) "seq" true (inst.Instance.seq = inst'.Instance.seq);
       Alcotest.(check int) "k" inst.Instance.cache_size inst'.Instance.cache_size;
       Alcotest.(check int) "f" inst.Instance.fetch_time inst'.Instance.fetch_time;
       Alcotest.(check int) "disks" inst.Instance.num_disks inst'.Instance.num_disks;
       Alcotest.(check bool) "layout" true (inst.Instance.disk_of = inst'.Instance.disk_of);
       Alcotest.(check bool) "init" true
         (List.sort compare inst.Instance.initial_cache
          = List.sort compare inst'.Instance.initial_cache))
    [ example2 (); Instance.single_disk ~k:2 ~fetch_time:3 ~initial_cache:[] [| 0; 1; 0; 2; 1 |] ]

let test_trace_defaults () =
  let path = Filename.temp_file "ipc_trace" ".txt" in
  let oc = open_out path in
  output_string oc "# minimal\nk 2\nf 3\nseq 0 1 0 2\n";
  close_out oc;
  let inst = Trace_io.load_instance path in
  Sys.remove path;
  Alcotest.(check int) "single disk" 1 inst.Instance.num_disks;
  Alcotest.(check (list int)) "warm init" [ 0; 1 ] inst.Instance.initial_cache

let test_trace_errors () =
  let path = Filename.temp_file "ipc_trace" ".txt" in
  let oc = open_out path in
  output_string oc "k 2\nseq 0 1\n";
  close_out oc;
  (match Trace_io.load_instance path with
   | exception Trace_io.Parse_error _ -> ()
   | _ -> Alcotest.fail "expected parse error (missing f)");
  Sys.remove path

let prop_trace_roundtrip_random =
  QCheck2.Test.make ~count:100 ~name:"trace roundtrip on random instances"
    QCheck2.Gen.(
      let* d = int_range 1 3 in
      let* nblocks = int_range d 8 in
      let* n = int_range 1 30 in
      let* seq = array_size (return n) (int_range 0 (nblocks - 1)) in
      let* k = int_range 1 5 in
      let num_blocks = Array.fold_left Stdlib.max 0 seq + 1 in
      let disk_of = Workload.striped_layout ~num_blocks ~num_disks:d in
      let init = Instance.warm_initial_cache ~k seq in
      return (Instance.parallel ~k ~fetch_time:2 ~num_disks:d ~disk_of ~initial_cache:init seq))
    (fun inst ->
       let path = Filename.temp_file "ipc_trace" ".txt" in
       let inst' =
         Fun.protect
           ~finally:(fun () -> Sys.remove path)
           (fun () ->
              Trace_io.save_instance path inst;
              Trace_io.load_instance path)
       in
       inst.Instance.seq = inst'.Instance.seq
       && inst.Instance.disk_of = inst'.Instance.disk_of
       && inst.Instance.cache_size = inst'.Instance.cache_size)

(* Gantt must render every algorithm's schedule on random instances. *)
let prop_gantt_total =
  QCheck2.Test.make ~count:150 ~name:"gantt renders all algorithm schedules"
    QCheck2.Gen.(
      let* nblocks = int_range 2 8 in
      let* n = int_range 1 25 in
      let* seq = array_size (return n) (int_range 0 (nblocks - 1)) in
      let* k = int_range 1 4 in
      let init = Instance.warm_initial_cache ~k seq in
      return (Instance.single_disk ~k ~fetch_time:3 ~initial_cache:init seq))
    (fun inst ->
       List.for_all
         (fun sched -> Result.is_ok (Gantt.render inst sched))
         [ Aggressive.schedule inst; Conservative.schedule inst; Combination.schedule inst ])

let () =
  Alcotest.run "gantt-trace"
    [ ( "gantt",
        [ Alcotest.test_case "renders example 2" `Quick test_gantt_renders;
          Alcotest.test_case "rejects invalid" `Quick test_gantt_rejects_invalid ] );
      ( "trace",
        [ Alcotest.test_case "roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "defaults" `Quick test_trace_defaults;
          Alcotest.test_case "errors" `Quick test_trace_errors ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_trace_roundtrip_random; prop_gantt_total ] ) ]
