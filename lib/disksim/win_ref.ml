(* Sliding-window next-reference index and block interner for the
   streaming engine.

   The batch engine precomputes {!Next_ref} over the whole sequence; a
   streaming scheduler only ever knows the requests inside its bounded
   lookahead window [cursor, filled).  This structure maintains exactly
   that knowledge in O(window) memory:

   - every raw block id gets a dense {e slot} the first time it is
     pushed (one probe of an open-addressing table); everything below
     is indexed by slot, so ids may be arbitrarily sparse (LBAs,
     hashes) without arrays sized by the largest id;
   - a circular buffer of the window's slots by absolute position (so
     [block_at] / [slot_at] are O(1)), and
   - per-slot ascending position deques (so next/previous-reference
     queries are binary searches over a block's in-window occurrences).

   Amortized O(1) per pushed/consumed position: when the window's low
   edge advances past a position, that position is popped from the front
   of its slot's deque, so dead entries never accumulate.  A slot is
   recycled once its block has no in-window position and no pin; the
   engine pins the blocks it holds (resident or in flight), so live slots
   number at most window + cache + 1.

   Positions at or beyond the window edge are unknowable; queries answer
   {!horizon} ("not referenced within the lookahead"), which comparisons
   treat exactly like the batch engine's one-past-the-end sentinel. *)

let horizon = max_int

(* Growable circular int deque of ascending absolute positions.  The
   capacity is a power of two and shrinks when a quarter full, so a
   deque holds O(len) words whatever its history. *)
type dq = { mutable a : int array; mutable head : int; mutable len : int }

let dq_create () = { a = Array.make 4 0; head = 0; len = 0 }
let dq_get q i = q.a.((q.head + i) land (Array.length q.a - 1))

let dq_resize q cap =
  let a' = Array.make cap 0 in
  for i = 0 to q.len - 1 do
    a'.(i) <- dq_get q i
  done;
  q.a <- a';
  q.head <- 0

let dq_push_back q v =
  if q.len = Array.length q.a then dq_resize q (2 * q.len);
  q.a.((q.head + q.len) land (Array.length q.a - 1)) <- v;
  q.len <- q.len + 1

let dq_pop_front q =
  q.head <- (q.head + 1) land (Array.length q.a - 1);
  q.len <- q.len - 1;
  let cap = Array.length q.a in
  if cap > 4 && 4 * q.len <= cap then dq_resize q (cap / 2)

(* First index with value >= [x], or [len]. *)
let dq_lower_bound q x =
  let lo = ref 0 and hi = ref q.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if dq_get q mid >= x then hi := mid else lo := mid + 1
  done;
  !lo

type t = {
  mutable buf : int array;  (* circular by absolute position: the slot requested there *)
  mutable lo : int;  (* lowest retained absolute position *)
  mutable hi : int;  (* next absolute position to be pushed *)
  slot_of_id : Int_table.t;  (* raw id -> slot, live slots only *)
  mutable id : int array;  (* slot -> raw id *)
  mutable pos : dq array;  (* slot -> ascending in-window positions *)
  mutable pins : int array;  (* slot -> pin count *)
  mutable free : int array;  (* stack of recycled slots, [0, nfree) *)
  mutable nfree : int;
  mutable nslots : int;  (* slots ever handed out: [0, nslots) *)
}

let create () =
  { buf = Array.make 64 0;
    lo = 0;
    hi = 0;
    slot_of_id = Int_table.create ();
    id = Array.make 64 0;
    pos = Array.init 64 (fun _ -> dq_create ());
    pins = Array.make 64 0;
    free = Array.make 64 0;
    nfree = 0;
    nslots = 0 }

let lo t = t.lo
let filled t = t.hi
let size t = t.hi - t.lo
let live_slots t = t.nslots - t.nfree

let grow_slots t =
  let cap = Array.length t.id in
  let extend a fill = Array.append a (Array.make cap fill) in
  t.id <- extend t.id 0;
  t.pins <- extend t.pins 0;
  t.free <- extend t.free 0;
  t.pos <- Array.append t.pos (Array.init cap (fun _ -> dq_create ()))

let fresh t b =
  let s =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else begin
      if t.nslots = Array.length t.id then grow_slots t;
      t.nslots <- t.nslots + 1;
      t.nslots - 1
    end
  in
  t.id.(s) <- b;
  s

(* One probe serves both the lookup and, for a new id, the insert. *)
let intern t b =
  let tbl = t.slot_of_id in
  let c = Int_table.cell tbl b in
  let s = Int_table.value_at tbl c in
  if s >= 0 then s
  else begin
    let s = fresh t b in
    Int_table.add_at tbl c b s;
    s
  end

let release_if_dead t s =
  if t.pos.(s).len = 0 && t.pins.(s) = 0 then begin
    Int_table.remove t.slot_of_id t.id.(s);
    t.free.(t.nfree) <- s;
    t.nfree <- t.nfree + 1
  end

let slot_of t b = Int_table.find t.slot_of_id b
let id_of_slot t s = t.id.(s)

let pin t b =
  let s = intern t b in
  t.pins.(s) <- t.pins.(s) + 1;
  s

let unpin t s =
  if t.pins.(s) <= 0 then invalid_arg (Printf.sprintf "Win_ref.unpin: slot %d is not pinned" s);
  t.pins.(s) <- t.pins.(s) - 1;
  release_if_dead t s

let check_pos fn t p =
  if p < t.lo || p >= t.hi then
    invalid_arg (Printf.sprintf "Win_ref.%s: position %d outside window [%d, %d)" fn p t.lo t.hi)

let slot_at t p =
  check_pos "slot_at" t p;
  t.buf.(p land (Array.length t.buf - 1))

let block_at t p =
  check_pos "block_at" t p;
  t.id.(t.buf.(p land (Array.length t.buf - 1)))

let push t b =
  let cap = Array.length t.buf in
  if t.hi - t.lo = cap then begin
    let cap' = 2 * cap in
    let buf' = Array.make cap' 0 in
    for p = t.lo to t.hi - 1 do
      buf'.(p land (cap' - 1)) <- t.buf.(p land (cap - 1))
    done;
    t.buf <- buf'
  end;
  let s = intern t b in
  t.buf.(t.hi land (Array.length t.buf - 1)) <- s;
  dq_push_back t.pos.(s) t.hi;
  t.hi <- t.hi + 1

let drop_below t cursor =
  while t.lo < cursor do
    let s = t.buf.(t.lo land (Array.length t.buf - 1)) in
    dq_pop_front t.pos.(s);
    release_if_dead t s;
    t.lo <- t.lo + 1
  done

let slot_next t s ~from =
  let q = t.pos.(s) in
  if q.len = 0 then horizon
  else if dq_get q 0 >= from then dq_get q 0
  else
    let i = dq_lower_bound q from in
    if i >= q.len then horizon else dq_get q i

let slot_prev t s ~before =
  let q = t.pos.(s) in
  let i = dq_lower_bound q before in
  if i = 0 then -1 else dq_get q (i - 1)

let next_at_or_after t b ~from =
  let s = slot_of t b in
  if s < 0 then horizon else slot_next t s ~from

let prev_before t b ~before =
  let s = slot_of t b in
  if s < 0 then -1 else slot_prev t s ~before
