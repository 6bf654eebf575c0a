(* Next-reference oracle.

   Every algorithm in the paper (Aggressive's furthest-in-future eviction,
   Conservative's MIN replacements, the LP normalization properties) needs
   "when is block b next requested at or after position i?".  We
   precompute, for every position, the next occurrence of the block
   requested there ([next_after_same], O(1)), and keep each block's sorted
   positions for arbitrary (position, block) queries ([next_at_or_after]
   and [prev_before], a binary search over the block's segment: O(log c)
   for a block requested c times, and on a skewed trace a popular
   block's segment is thousands of positions long, so each search mostly
   waits on cache misses).  Callers that move a cursor forward one
   position at a time do not need the searches: {!Driver} keeps per-block
   next/last references in step with its cursor from [next_after_same]
   alone and answers its hot queries in O(1); its Reference engine keeps
   the searches as the independent lookup the equivalence suite checks
   that against.

   The positions are stored CSR-style: block b's positions are
   [pos.(off.(b)) .. pos.(off.(b + 1) - 1)], all blocks in one flat array
   filled by a counting sort.  Three passes over the sequence and three
   int arrays (plus one scratch array per block): no per-block list or
   array, so the build allocates O(1) words per request, not a list cell
   each. *)

type t = {
  n : int;
  next_same : int array;
  (* next_same.(i) = smallest j > i with seq.(j) = seq.(i), or n. *)
  off : int array;
  (* off.(b) = index in [pos] of block b's first position; length num_blocks + 1. *)
  pos : int array;
  (* every position, grouped by block, ascending within a block. *)
}

let infinity_pos t = t.n
(* Convention: position [n] (one past the sequence) means "never again". *)

let build (seq : int array) ~num_blocks =
  let n = Array.length seq in
  let off = Array.make (num_blocks + 1) 0 in
  for i = 0 to n - 1 do
    let b = seq.(i) in
    off.(b + 1) <- off.(b + 1) + 1
  done;
  for b = 1 to num_blocks do
    off.(b) <- off.(b) + off.(b - 1)
  done;
  (* [fill.(b)] walks block b's segment as the forward pass places its
     positions; the backward pass then reuses it as "last position of b
     seen so far". *)
  let fill = Array.sub off 0 num_blocks in
  let pos = Array.make n 0 in
  for i = 0 to n - 1 do
    let b = seq.(i) in
    pos.(fill.(b)) <- i;
    fill.(b) <- fill.(b) + 1
  done;
  Array.fill fill 0 num_blocks n;
  let next_same = Array.make n n in
  for i = n - 1 downto 0 do
    let b = seq.(i) in
    next_same.(i) <- fill.(b);
    fill.(b) <- i
  done;
  { n; next_same; off; pos }

let of_instance (inst : Instance.t) = build inst.Instance.seq ~num_blocks:(Instance.num_blocks inst)

(* Next occurrence of the block at position i, strictly after i. *)
let next_after_same t i = t.next_same.(i)

(* Index in [pos] of block b's first position >= p (its segment end if
   none): a binary search over the block's CSR segment. *)
let lower_bound t b p =
  let lo = ref t.off.(b) and hi = ref t.off.(b + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.pos.(mid) >= p then hi := mid else lo := mid + 1
  done;
  !lo

(* Smallest position >= pos at which block b is requested, or n if none. *)
let next_at_or_after t b pos =
  let r = lower_bound t b pos in
  if r < t.off.(b + 1) then t.pos.(r) else t.n

(* Smallest position > pos at which block b is requested, or n if none. *)
let next_strictly_after t b pos = next_at_or_after t b (pos + 1)

(* Largest position < pos at which block b is requested, or -1 if none. *)
let prev_before t b pos =
  let r = lower_bound t b pos in
  if r = t.off.(b) then -1 else t.pos.(r - 1)

let is_requested_at_or_after t b pos = next_at_or_after t b pos < t.n

(* Number of requests to block b. *)
let count t b = t.off.(b + 1) - t.off.(b)

let first_request t b = if count t b = 0 then t.n else t.pos.(t.off.(b))

let last_request t b = if count t b = 0 then -1 else t.pos.(t.off.(b + 1) - 1)
