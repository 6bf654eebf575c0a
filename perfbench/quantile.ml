(* Order statistics for the benchmark's samples.

   [quantiles] reproduces Python's [statistics.quantiles(data, n)] with
   its default "exclusive" method, because that is how the spread of a
   metric across runs is judged; using the same arithmetic here keeps
   the numbers the benchmark prints and the numbers it is judged by
   identical. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median = function
  | [] -> invalid_arg "Quantile.median: no samples"
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Cut points dividing the sorted samples into [n] groups, by linear
   interpolation between the order statistics at positions
   [i * (len + 1) / n]; a single sample is every cut point. *)
let quantiles ~n xs =
  if n < 1 then invalid_arg "Quantile.quantiles: n must be >= 1";
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Quantile.quantiles: no samples";
  if ld = 1 then List.init (n - 1) (fun _ -> a.(0))
  else
    let m = ld + 1 in
    List.init (n - 1) (fun k ->
        let i = k + 1 in
        let j = Stdlib.min (ld - 1) (Stdlib.max 1 (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
        /. float_of_int n)

(* Interquartile range as a share of the median: how the spread of a
   metric across runs is judged, and how the report states the spread of
   a run's pass times. *)
let spread xs =
  let q = Array.of_list (quantiles ~n:4 xs) in
  let m = median xs in
  if m = 0. then 0. else (q.(2) -. q.(0)) /. Float.abs m
