(* Golden record of the LP pipeline's pivot paths.

   Every line of [lp_golden.digests] describes one LP solved by the
   sparse revised simplex ({!Revised}):

   - the float pass ({!Revised.Float_rev.solve_std}): its outcome, its
     pivots, degenerate pivots, refactorizations and warm-start accepts,
     the MD5 of the basis it returns and of its float values printed
     bit-exactly ([%h]), and its float objective, also bit-exact;
   - the hybrid driver ({!Revised.solve_with_basis}): the exact
     objective and whether the float basis was certified.

   The LPs are the synchronized LPs ({!Sync_lp.build}) of the [Ck_gen]
   corpus cases with D >= 2, of the paper's and the examples' instances,
   and of a perfbench-shaped set (uniform, k = 4, F = 4, D = 2), plus
   the branch-and-bound node sequence of {!Ilp.solve} on the knapsacks
   of [test_ilp], node by node with each child warm-started from its
   parent's basis, and the per-call totals of [Ilp.solve] itself.

   A change to the simplex's arithmetic that is meant to be exact (same
   operations in the same order) leaves every line alone; one that moves
   a single float bit moves a pivot path and shows here.  The file was
   recorded once, before the float kernels of {!Lp_field}, and is never
   regenerated.  To print the lines of the current code (for a diff, not
   to overwrite the file):

     dune exec test/test_lp_golden.exe -- --print *)

module P = Lp_problem

let seed = 42
let num_cases = 102

(* [dune runtest] runs in the test directory, [dune exec] in the root. *)
let digest_file =
  if Sys.file_exists "lp_golden.digests" then "lp_golden.digests"
  else Filename.concat "test" "lp_golden.digests"

let md5_of_ints a =
  let b = Buffer.create 1024 in
  Array.iter (fun x -> Printf.bprintf b "%d," x) a;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 12

let md5_of_floats a =
  let b = Buffer.create 1024 in
  Array.iter (fun x -> Printf.bprintf b "%h," x) a;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 12

let render_result = function
  | P.Optimal { objective_value; _ } -> Rat.to_string objective_value
  | P.Infeasible -> "infeasible"
  | P.Unbounded -> "unbounded"

(* The float pass alone, then the hybrid driver; returns the line and the
   hybrid's solution (its basis warm-starts branch-and-bound children). *)
let render_lp ?warm (p : P.t) : string * Revised.solution =
  let std = Revised.sparse_standardize p in
  let s0 = Simplex.stats_snapshot () in
  let fpass =
    match Revised.Float_rev.solve_std ?warm std with
    | exception Revised.Float_rev.Iteration_limit -> "limit"
    | Revised.Float_rev.Infeasible -> "infeasible"
    | Revised.Float_rev.Unbounded -> "unbounded"
    | Revised.Float_rev.Solved { values; objective; basis; _ } ->
      Printf.sprintf "solved basis=%s vals=%s fobj=%h" (md5_of_ints basis) (md5_of_floats values)
        objective
  in
  let d = Simplex.stats_since s0 in
  let s1 = Simplex.stats_snapshot () in
  let sol = Revised.solve_with_basis ?warm p in
  let h = Simplex.stats_since s1 in
  ( Printf.sprintf "piv=%d deg=%d refac=%d warm=%d float=%s obj=%s cert=%d" d.Simplex.pivots
      d.Simplex.degenerate_pivots d.Simplex.refactorizations d.Simplex.warm_accepts fpass
      (render_result sol.Revised.result) h.Simplex.certified,
    sol )

let sync_line label inst =
  let built = Sync_lp.build inst in
  Printf.sprintf "%s %s" label (fst (render_lp built.Sync_lp.problem))

let ck_lines () =
  List.filter_map
    (fun index ->
       let case = Ck_gen.generate ~seed ~index in
       let inst = case.Ck_gen.inst in
       if inst.Instance.num_disks < 2 then None
       else Some (sync_line (Printf.sprintf "ck/%03d" index) inst))
    (List.init num_cases Fun.id)

let example_lines () =
  let paper2 =
    Instance.parallel ~k:4 ~fetch_time:4 ~num_disks:2 ~disk_of:[| 0; 0; 0; 0; 1; 1; 1 |]
      ~initial_cache:[ 0; 1; 4; 5 ] [| 0; 1; 4; 5; 2; 6; 3 |]
  in
  let paper1 =
    Instance.single_disk ~k:4 ~fetch_time:4 ~initial_cache:[ 0; 1; 2; 3 ]
      [| 0; 1; 2; 3; 3; 4; 0; 3; 3; 1 |]
  in
  let streams d =
    Workload.interleaved_streams ~n:18 ~num_streams:d ~blocks_per_stream:3
    |> Workload.parallel_instance ~k:4 ~fetch_time:3 ~num_disks:d
         ~layout:(fun ~num_blocks ~num_disks -> Workload.partitioned_layout ~num_blocks ~num_disks)
  in
  [ sync_line "example/paper2" paper2; sync_line "example/paper1" paper1;
    sync_line "example/streams-d1" (streams 1); sync_line "example/streams-d2" (streams 2) ]

(* perfbench's lp_rounding instance shape; the n = 40 pair are its seed-1
   instances 0 and 1. *)
let perf_lines () =
  List.map
    (fun (n, num_blocks, s) ->
       let inst =
         Workload.uniform ~seed:s ~n ~num_blocks
         |> Workload.parallel_instance ~k:4 ~fetch_time:4 ~num_disks:2
              ~layout:(fun ~num_blocks ~num_disks -> Workload.striped_layout ~num_blocks ~num_disks)
       in
       sync_line (Printf.sprintf "perf/n%d-b%d-s%d" n num_blocks s) inst)
    [ (24, 12, 1); (24, 12, 2); (24, 12, 3); (24, 12, 4); (40, 20, 1009); (40, 20, 1010) ]

(* ------------------------------------------------------------------ *)
(* Branch and bound.  [node_lines] walks the same tree as {!Ilp.solve}
   (most fractional binary, relaxation-leaning side first, children
   warm-started from the parent's basis extended with the fixing row's
   artificial) and prints one line per node; [ilp_line] prints the
   totals of a real [Ilp.solve] call. *)

let knapsack values weights cap =
  let b = P.Builder.create ~direction:P.Minimize () in
  let vars = List.mapi (fun i _ -> P.Builder.add_var b (Printf.sprintf "x%d" i)) values in
  P.Builder.set_objective b (List.mapi (fun i v -> (i, Rat.of_int (-v))) values);
  P.Builder.add_row b (List.mapi (fun i w -> (i, Rat.of_int w)) weights) P.Le (Rat.of_int cap);
  List.iter (fun v -> P.Builder.add_row b [ (v, Rat.one) ] P.Le Rat.one) vars;
  P.Builder.freeze b

let knapsacks =
  [ ("k3", knapsack [ 60; 100; 120 ] [ 10; 20; 30 ] 50);
    ("k6", knapsack [ 10; 7; 25; 24; 13; 8 ] [ 3; 2; 6; 5; 4; 3 ] 10);
    ("k8", knapsack [ 12; 30; 7; 19; 23; 5; 16; 28 ] [ 4; 9; 3; 6; 7; 2; 5; 8 ] 21) ]

let node_lines name (p : P.t) =
  let lines = ref [] in
  let count = ref 0 in
  let incumbent = ref None in
  let fix_row v value =
    { P.coeffs = [ (v, Rat.one) ]; relation = P.Eq; rhs = (if value then Rat.one else Rat.zero) }
  in
  let rec branch rows_rev depth warm =
    if !count < 200 then begin
      let node = !count in
      incr count;
      let prob = { p with P.rows = List.rev rows_rev } in
      let line, { Revised.result; basis } = render_lp ?warm prob in
      lines := Printf.sprintf "ilp/%s/node%03d d=%d %s" name node depth line :: !lines;
      match result with
      | P.Infeasible | P.Unbounded -> ()
      | P.Optimal { objective_value; values } ->
        let better = match !incumbent with None -> true | Some o -> Rat.lt objective_value o in
        if better then begin
          let best_var = ref (-1) and best_frac = ref Rat.one in
          Array.iteri
            (fun v x ->
               if not (Rat.is_zero x || Rat.equal x Rat.one) then begin
                 let fr = Rat.abs (Rat.sub x Rat.half) in
                 if Rat.lt fr !best_frac then begin
                   best_frac := fr;
                   best_var := v
                 end
               end)
            values;
          if !best_var < 0 then incumbent := Some objective_value
          else begin
            let v = !best_var in
            let warm_child = Option.map (fun b -> Array.append b [| -1 |]) basis in
            let first = Rat.ge values.(v) Rat.half in
            branch (fix_row v first :: rows_rev) (depth + 1) warm_child;
            branch (fix_row v (not first) :: rows_rev) (depth + 1) warm_child
          end
        end
    end
  in
  branch (List.rev p.P.rows) 0 None;
  List.rev !lines

let ilp_line name p =
  let s0 = Simplex.stats_snapshot () in
  let o = Ilp.solve p in
  let d = Simplex.stats_since s0 in
  Printf.sprintf "ilp/%s/total nodes=%d piv=%d deg=%d refac=%d warm=%d/%d cert=%d obj=%s" name
    o.Ilp.nodes_explored d.Simplex.pivots d.Simplex.degenerate_pivots d.Simplex.refactorizations
    d.Simplex.warm_accepts d.Simplex.warm_rejects d.Simplex.certified (render_result o.Ilp.result)

let ilp_lines () =
  List.concat_map (fun (name, p) -> node_lines name p @ [ ilp_line name p ]) knapsacks

let lines () = ck_lines () @ example_lines () @ perf_lines () @ ilp_lines ()

(* ------------------------------------------------------------------ *)

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
  let actual = lines () in
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
    Alcotest.failf "%d of %d lines differ from the recorded LP pivot paths" (List.length ms)
      (List.length expected)

let () =
  if Array.exists (String.equal "--print") Sys.argv then List.iter print_endline (lines ())
  else
    Alcotest.run "lp-golden"
      [ ("golden", [ Alcotest.test_case "lines match the recorded LP pivot paths" `Quick test_golden ]) ]
