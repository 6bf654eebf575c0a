(* Tests for the workload generators. *)

let test_uniform_range_and_determinism () =
  let a = Workload.uniform ~seed:7 ~n:200 ~num_blocks:13 in
  let b = Workload.uniform ~seed:7 ~n:200 ~num_blocks:13 in
  let c = Workload.uniform ~seed:8 ~n:200 ~num_blocks:13 in
  Alcotest.(check bool) "deterministic" true (a = b);
  Alcotest.(check bool) "seed changes output" true (a <> c);
  Alcotest.(check bool) "range" true (Array.for_all (fun x -> x >= 0 && x < 13) a)

let test_zipf_skew () =
  let a = Workload.zipf ~seed:1 ~alpha:1.2 ~n:5000 ~num_blocks:50 in
  let count b = Array.fold_left (fun acc x -> if x = b then acc + 1 else acc) 0 a in
  Alcotest.(check bool) "block 0 much hotter than block 40" true (count 0 > 5 * (count 40 + 1));
  Alcotest.(check bool) "range" true (Array.for_all (fun x -> x >= 0 && x < 50) a)

(* The inverse-CDF draw as first written: a binary search for the first
   cdf.(i) >= x over the same seeded floats.  The guide-table sampler
   must reproduce it draw for draw, or every recorded Zipf trace (and
   the digests pinned on them) would change. *)
let zipf_by_binary_search ~seed ~alpha ~n ~num_blocks =
  let st = Random.State.make [| seed; 0x9e3779b9 |] in
  let cdf = Array.make num_blocks 0.0 in
  let total = ref 0.0 in
  for i = 0 to num_blocks - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (i + 1)) alpha);
    cdf.(i) <- !total
  done;
  Array.init n (fun _ ->
    let x = Random.State.float st !total in
    let lo = ref 0 and hi = ref (num_blocks - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) >= x then hi := mid else lo := mid + 1
    done;
    !lo)

let prop_zipf_matches_binary_search =
  QCheck2.Test.make ~count:300 ~name:"zipf guide table = binary search"
    QCheck2.Gen.(
      tup4 (int_range 0 10_000)
        (oneofl [ 0.0; 0.5; 0.9; 1.2; 3.0; 40.0; 400.0 ])
        (int_range 0 400) (int_range 1 3000))
    (fun (seed, alpha, n, num_blocks) ->
       Workload.zipf ~seed ~alpha ~n ~num_blocks
       = zipf_by_binary_search ~seed ~alpha ~n ~num_blocks)

let test_scan () =
  Alcotest.(check (list int)) "cyclic" [ 0; 1; 2; 0; 1 ]
    (Array.to_list (Workload.sequential_scan ~n:5 ~num_blocks:3))

let test_interleaved_streams () =
  let a = Workload.interleaved_streams ~n:8 ~num_streams:2 ~blocks_per_stream:3 in
  Alcotest.(check (list int)) "round robin" [ 0; 3; 1; 4; 2; 5; 0; 3 ] (Array.to_list a)

let test_lru_stack_locality () =
  let a = Workload.lru_stack ~seed:3 ~n:2000 ~num_blocks:20 ~p:0.7 in
  (* With p = 0.7, most requests repeat a very recently used block: the
     number of distinct blocks in any short window should be small. *)
  let distinct_in_window i len =
    let tbl = Hashtbl.create 8 in
    for j = i to i + len - 1 do
      Hashtbl.replace tbl a.(j) ()
    done;
    Hashtbl.length tbl
  in
  let total = ref 0 in
  for i = 0 to 99 do
    total := !total + distinct_in_window (i * 10) 10
  done;
  let avg = float_of_int !total /. 100.0 in
  Alcotest.(check bool) (Printf.sprintf "high locality (avg %.2f distinct/10)" avg) true (avg < 6.0)

let test_layouts () =
  Alcotest.(check (list int)) "striped" [ 0; 1; 2; 0; 1 ]
    (Array.to_list (Workload.striped_layout ~num_blocks:5 ~num_disks:3));
  Alcotest.(check (list int)) "partitioned" [ 0; 0; 1; 1; 2 ]
    (Array.to_list (Workload.partitioned_layout ~num_blocks:5 ~num_disks:3));
  let r = Workload.random_layout ~seed:1 ~num_blocks:100 ~num_disks:4 in
  Alcotest.(check bool) "random in range" true (Array.for_all (fun d -> d >= 0 && d < 4) r);
  let h = Workload.hot_disk_layout ~seed:1 ~num_blocks:1000 ~num_disks:4 ~hot_fraction:0.7 in
  let on0 = Array.fold_left (fun acc d -> if d = 0 then acc + 1 else acc) 0 h in
  Alcotest.(check bool) "hot disk really hot" true (on0 > 600)

let test_theorem2_structure () =
  (* k=7, F=4 -> l=2, phase length 9. *)
  let inst = Workload.theorem2_lower_bound ~k:7 ~fetch_time:4 ~phases:2 in
  Alcotest.(check int) "length" 18 (Instance.length inst);
  (* Phase 1 starts with a_1 then the b^0 blocks from the initial cache. *)
  Alcotest.(check int) "first request a1" 0 inst.Instance.seq.(0);
  Alcotest.(check bool) "b^0 blocks initially cached" true
    (List.mem 5 inst.Instance.initial_cache && List.mem 6 inst.Instance.initial_cache);
  (* Fresh blocks at the end of each phase are new. *)
  let all_before p b = Array.for_all (fun x -> x <> b) (Array.sub inst.Instance.seq 0 p) in
  Alcotest.(check bool) "phase-1-end blocks fresh" true (all_before 7 inst.Instance.seq.(7))

let test_theorem2_round_k () =
  Alcotest.(check int) "k=6 F=4 rounds to 7" 7 (Workload.theorem2_round_k ~k:6 ~fetch_time:4);
  Alcotest.(check int) "k=7 F=4 stays 7" 7 (Workload.theorem2_round_k ~k:7 ~fetch_time:4)

let test_families_all_produce () =
  List.iter
    (fun (fam : Workload.family) ->
       let seq = fam.Workload.generate ~seed:5 ~n:100 ~num_blocks:12 in
       Alcotest.(check int) (fam.Workload.name ^ " length") 100 (Array.length seq);
       Alcotest.(check bool) (fam.Workload.name ^ " range") true
         (Array.for_all (fun b -> b >= 0 && b < 20) seq))
    Workload.families

let prop_instances_well_formed =
  QCheck2.Test.make ~count:100 ~name:"generated instances validate"
    QCheck2.Gen.(tup4 (int_range 0 1000) (int_range 1 60) (int_range 2 10) (int_range 1 5))
    (fun (seed, n, nb, k) ->
       let seq = Workload.uniform ~seed ~n ~num_blocks:nb in
       let i = Workload.single_instance ~k ~fetch_time:3 seq in
       Instance.length i = n
       &&
       let p =
         Workload.parallel_instance ~k ~fetch_time:3 ~num_disks:2
           ~layout:(fun ~num_blocks ~num_disks -> Workload.striped_layout ~num_blocks ~num_disks)
           seq
       in
       p.Instance.num_disks = 2)

let () =
  Alcotest.run "workload"
    [ ( "unit",
        [ Alcotest.test_case "uniform" `Quick test_uniform_range_and_determinism;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "scan" `Quick test_scan;
          Alcotest.test_case "interleaved streams" `Quick test_interleaved_streams;
          Alcotest.test_case "lru-stack locality" `Quick test_lru_stack_locality;
          Alcotest.test_case "layouts" `Quick test_layouts;
          Alcotest.test_case "theorem2 structure" `Quick test_theorem2_structure;
          Alcotest.test_case "theorem2 round k" `Quick test_theorem2_round_k;
          Alcotest.test_case "families" `Quick test_families_all_produce ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_instances_well_formed;
          QCheck_alcotest.to_alcotest prop_zipf_matches_binary_search ] ) ]
