(* Machine fingerprint and calibration kernel.

   Results taken on different machines or containers are compared in
   absolute terms through the ratio of their calibration times.  The
   kernel uses nothing from this repository, so a change to the library
   under test cannot change its time. *)

type t = { ocaml : string; cpu : string; nproc : int; calibration_ms : float }

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
         let rec scan () =
           match input_line ic with
           | exception End_of_file -> "unknown"
           | line -> (
               match String.index_opt line ':' with
               | Some i when String.trim (String.sub line 0 i) = "model name" ->
                 String.trim (String.sub line (i + 1) (String.length line - i - 1))
               | _ -> scan ())
         in
         scan ())

(* An allocation-heavy kernel, built like the workloads' own inner
   loops: a persistent [Map] over 2^14 keys updated by a fixed
   pseudo-random sequence, so that it allocates on the minor heap,
   promotes to the major heap and chases pointers through about 1 MiB.
   On a shared host its time swings with the same contention (memory,
   cache, collector) that swings the workloads, which an integer-only
   loop tracks about half as well. *)
module Imap = Map.Make (Int)

let kernel () =
  let x = ref 0x2545F491 and m = ref Imap.empty in
  for _ = 1 to 50_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    m := Imap.add (!x land 0x3FFF) !x !m
  done;
  Sys.opaque_identity (Imap.cardinal !m)

(* One timed kernel run, in ns, from a collected heap. *)
let kernel_ns () =
  Gc.full_major ();
  let t0 = Span.now_ns () in
  ignore (kernel ());
  Span.now_ns () - t0

(* Median of five timed runs after one warm-up, in milliseconds. *)
let calibrate () =
  ignore (kernel ());
  Quantile.median (List.init 5 (fun _ -> float_of_int (kernel_ns ()) /. 1e6))

let fingerprint () =
  { ocaml = Sys.ocaml_version; cpu = cpu_model ();
    nproc = Domain.recommended_domain_count (); calibration_ms = calibrate () }

let to_json m =
  Tjson.Obj
    [ ("ocaml", Tjson.String m.ocaml); ("cpu", Tjson.String m.cpu); ("nproc", Tjson.Int m.nproc);
      ("calibration_ms", Tjson.Float m.calibration_ms) ]
