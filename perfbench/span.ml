(* Spans recorded by the benchmark around its calls into each layer.

   A span has a name, a start and an end on the monotonic clock, the
   span that was open when it started (its parent), and the pass it
   belongs to; it also carries the minor-heap words allocated while it
   was open.  Spans stay in memory and are written out once, at the end
   of a run.  Nothing inside the library under test is instrumented: a
   span brackets a call from the benchmark's own code.

   A disabled tracer records nothing and costs one branch per call. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  pass : int;
  start_ns : int;
  mutable stop_ns : int;
  mutable words : float;  (** minor-heap words allocated inside *)
}

type tracer = {
  on : bool;
  mutable spans : t list;  (** most recent first *)
  mutable next_id : int;
  mutable open_ : t list;  (** the open spans, innermost first *)
  mutable pass : int;
}

let now_ns () = Int64.to_int (Telemetry.now_ns ())

let create ~on = { on; spans = []; next_id = 0; open_ = []; pass = 0 }
let off = create ~on:false
let set_pass tr p = tr.pass <- p
let current_parent tr = match tr.open_ with [] -> -1 | p :: _ -> p.id

let fresh tr ~name ~start_ns =
  let s =
    { id = tr.next_id; name; parent = current_parent tr; pass = tr.pass; start_ns;
      stop_ns = start_ns; words = 0. }
  in
  tr.next_id <- tr.next_id + 1;
  s

let with_span tr name f =
  if not tr.on then f ()
  else begin
    let s = fresh tr ~name ~start_ns:(now_ns ()) in
    let w0 = Gc.minor_words () in
    tr.open_ <- s :: tr.open_;
    Fun.protect
      ~finally:(fun () ->
          s.stop_ns <- now_ns ();
          s.words <- Gc.minor_words () -. w0;
          tr.open_ <- List.tl tr.open_;
          tr.spans <- s :: tr.spans)
      f
  end

(* A span measured by the caller, as a child of the innermost open
   span. *)
let record tr name ~start_ns ~stop_ns ~words =
  if tr.on then begin
    let s = fresh tr ~name ~start_ns in
    s.stop_ns <- stop_ns;
    s.words <- words;
    tr.spans <- s :: tr.spans
  end

(* An aggregate child of the innermost open span: work interleaved with
   its parent at a grain too fine to bracket call by call (the trace
   reader's pulls inside a stream run) is summed by the caller and
   recorded as one span of that total length at the parent's start, so
   the self-time arithmetic below subtracts it exactly once. *)
let record_aggregate tr name ~ns ~words =
  let start_ns = match tr.open_ with [] -> now_ns () - ns | p :: _ -> p.start_ns in
  record tr name ~start_ns ~stop_ns:(start_ns + ns) ~words

(* The part of [start, stop) covered by the union of the given
   intervals, each clipped to it. *)
let covered ~start ~stop intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
         let a = Stdlib.max a start and b = Stdlib.min b stop in
         if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last_a, last_b =
    List.fold_left
      (fun (total, ca, cb) (a, b) ->
         if cb < 0 then (total, a, b)
         else if a <= cb then (total, ca, Stdlib.max cb b)
         else (total + (cb - ca), a, b))
      (0, 0, -1) clipped
  in
  if last_b < 0 then total else total + (last_b - last_a)

(* Self time: the span's duration minus the part of it its children
   cover. *)
let self_ns ~start ~stop children = stop - start - covered ~start ~stop children

let spans tr = List.rev tr.spans

type self = { span : t; self_ns : int; self_words : float }

(* Self time and self words (the children's words taken out) of every
   recorded span, in order of completion. *)
let with_self_times tr =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s) tr.spans;
  List.map
    (fun s ->
       let kids = Hashtbl.find_all children s.id in
       { span = s;
         self_ns =
           self_ns ~start:s.start_ns ~stop:s.stop_ns
             (List.map (fun c -> (c.start_ns, c.stop_ns)) kids);
         self_words = List.fold_left (fun w c -> w -. c.words) s.words kids })
    (spans tr)

(* Summed self time (ns) and self words of the spans of one pass, by
   name; [(0, 0.)] for a name with no span. *)
let pass_totals tr pass =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun x ->
       if x.span.pass = pass then begin
         let ns, w = Option.value (Hashtbl.find_opt tbl x.span.name) ~default:(0, 0.) in
         Hashtbl.replace tbl x.span.name (ns + x.self_ns, w +. x.self_words)
       end)
    (with_self_times tr);
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:(0, 0.)

(* The same over every pass. *)
let total tr name =
  List.fold_left
    (fun (ns, w) x -> if x.span.name = name then (ns + x.self_ns, w +. x.self_words) else (ns, w))
    (0, 0.) (with_self_times tr)

let to_json { span = s; self_ns; self_words } =
  Tjson.Obj
    [ ("id", Tjson.Int s.id); ("name", Tjson.String s.name); ("parent", Tjson.Int s.parent);
      ("pass", Tjson.Int s.pass); ("start_ns", Tjson.Int s.start_ns);
      ("end_ns", Tjson.Int s.stop_ns); ("self_ns", Tjson.Int self_ns);
      ("minor_words", Tjson.Float s.words); ("self_minor_words", Tjson.Float self_words) ]

let write_jsonl tr path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
       List.iter
         (fun x ->
            Tjson.to_channel oc (to_json x);
            output_char oc '\n')
         (with_self_times tr))
