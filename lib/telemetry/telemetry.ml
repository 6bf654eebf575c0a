(* Global metrics registry: counters, gauges, histograms and
   monotonic-clock spans.

   Design constraints, in order:
   1. Zero cost when disabled.  The whole registry sits behind one
      [enabled] flag; every mutation is a single ref read + branch when
      telemetry is off, and instrumented hot paths are expected to check
      {!enabled} once and aggregate locally before reporting.
   2. Deterministic export.  {!snapshot} returns metrics sorted by name,
      and histograms summarize into the same {!Stats.summary} shape the
      experiment tables use, so dumps are stable and directly comparable
      with experiment output.
   3. No dependencies above the substrate layer: everything else
      (disksim, simplex, core, paging, experiments, bin, bench) can link
      against this library.

   The registry is process-global and single-threaded, like the rest of
   the reproduction. *)

(* Handles carry no name: the registry key does; handle identity is what
   mutation needs. *)
type counter = { mutable count : int }
type gauge = { mutable gvalue : float }

(* Histograms are constant-memory streaming log-bucketed accumulators
   (see {!Streaming_hist}): at million-request scale the old list-backed
   representation held every observation and its snapshot sort skewed
   the hot paths being measured. *)
type histogram = Streaming_hist.t

type metric = C of counter | G of gauge | H of histogram

type value =
  | Counter of int
  | Gauge of float
  | Histogram of Stats.summary

(* ------------------------------------------------------------------ *)
(* Registry state. *)

let enabled_flag = ref false
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

let reset () =
  Hashtbl.iter
    (fun _ m ->
       match m with
       | C c -> c.count <- 0
       | G g -> g.gvalue <- 0.0
       | H h -> Streaming_hist.reset h)
    registry

let clear () = Hashtbl.reset registry

(* Metric handles are created eagerly (registration is cheap and happens
   once per name); only mutations are gated on the flag.  Re-registering a
   name with a different kind is a programming error worth failing on. *)

let kind_error name = invalid_arg (Printf.sprintf "Telemetry: metric %s already registered with another kind" name)

let counter name : counter =
  match Hashtbl.find_opt registry name with
  | Some (C c) -> c
  | Some _ -> kind_error name
  | None ->
    let c = { count = 0 } in
    Hashtbl.replace registry name (C c);
    c

let gauge name : gauge =
  match Hashtbl.find_opt registry name with
  | Some (G g) -> g
  | Some _ -> kind_error name
  | None ->
    let g = { gvalue = 0.0 } in
    Hashtbl.replace registry name (G g);
    g

let histogram name : histogram =
  match Hashtbl.find_opt registry name with
  | Some (H h) -> h
  | Some _ -> kind_error name
  | None ->
    let h = Streaming_hist.create () in
    Hashtbl.replace registry name (H h);
    h

let incr c = if !enabled_flag then c.count <- c.count + 1
let add c n = if !enabled_flag then c.count <- c.count + n
let set g v = if !enabled_flag then g.gvalue <- v
let observe h v = if !enabled_flag then Streaming_hist.observe h v

let observe_int h v = if !enabled_flag then Streaming_hist.observe_int h v

(* ------------------------------------------------------------------ *)
(* Spans: monotonic-clock duration measurements recorded into a
   histogram named after the span (milliseconds). *)

let now_ns () : int64 = Monotonic_clock.now ()

type span = { shist : histogram; start_ns : int64; active : bool }

let start_span name =
  if !enabled_flag then { shist = histogram name; start_ns = now_ns (); active = true }
  else { shist = histogram name; start_ns = 0L; active = false }

let finish_span s =
  if s.active && !enabled_flag then begin
    let elapsed = Int64.sub (now_ns ()) s.start_ns in
    observe s.shist (Int64.to_float elapsed /. 1e6)
  end

let with_span name f =
  let s = start_span name in
  Fun.protect ~finally:(fun () -> finish_span s) f

(* ------------------------------------------------------------------ *)
(* Snapshots. *)

let value_of_metric = function
  | C c -> Counter c.count
  | G g -> Gauge g.gvalue
  | H h -> Histogram (Streaming_hist.summary h)

let snapshot () : (string * value) list =
  Hashtbl.fold (fun name m acc -> (name, value_of_metric m) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find name = Option.map value_of_metric (Hashtbl.find_opt registry name)

(* Bucket-level view of a histogram, for exports that want the
   distribution (report sparklines) rather than just the summary.
   Empty for unknown names and non-histogram metrics. *)
let buckets name =
  match Hashtbl.find_opt registry name with
  | Some (H h) -> Streaming_hist.buckets h
  | Some (C _ | G _) | None -> []

let pp_value fmt = function
  | Counter n -> Format.fprintf fmt "%d" n
  | Gauge v -> Format.fprintf fmt "%.6g" v
  | Histogram s -> Stats.pp fmt s
