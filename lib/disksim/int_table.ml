(* Int -> non-negative int map: open addressing with linear probing over
   one flat array, key at [2i] and value at [2i + 1] so a probe reads one
   cache line.  A cell with value -1 is empty; deletion shifts entries
   back, so probe runs never hold tombstones.  Keys are arbitrary ints
   (LBAs, hashes, packed pairs): a multiplicative mix spreads them over
   the low bits the table indexes by.  Unlike [Hashtbl] nothing is
   allocated per insert, and a lookup is a few int compares.

   The cell interface lets one probe serve a lookup and the insert or
   update that follows it. *)

type t = { mutable cells : int array; mutable count : int }

let empty_cells n = Array.init (2 * n) (fun i -> if i land 1 = 0 then 0 else -1)
let create () = { cells = empty_cells 128; count = 0 }
let count t = t.count

let home t k =
  let h = k * 0x1e3779b97f4a7c15 in
  (h lxor (h lsr 29)) land ((Array.length t.cells lsr 1) - 1)

(* The cell holding [k], or the empty cell that ends its probe run. *)
let cell t k =
  let cells = t.cells in
  let mask = (Array.length cells lsr 1) - 1 in
  let i = ref (home t k) in
  while
    Array.unsafe_get cells ((2 * !i) + 1) >= 0 && Array.unsafe_get cells (2 * !i) <> k
  do
    i := (!i + 1) land mask
  done;
  !i

let value_at t c = t.cells.((2 * c) + 1)

let set_at t c v =
  if v < 0 then invalid_arg "Int_table.set_at: negative value";
  t.cells.((2 * c) + 1) <- v

let find t k = value_at t (cell t k)

let grow t =
  let old = t.cells in
  t.cells <- empty_cells (Array.length old);
  for i = 0 to (Array.length old lsr 1) - 1 do
    let v = old.((2 * i) + 1) in
    if v >= 0 then begin
      let c = cell t old.(2 * i) in
      t.cells.(2 * c) <- old.(2 * i);
      t.cells.((2 * c) + 1) <- v
    end
  done

(* The table stays at most half full; growing moves [k]'s cell. *)
let add_at t c k v =
  if v < 0 then invalid_arg "Int_table.add_at: negative value";
  let c =
    if 2 * (t.count + 1) > Array.length t.cells lsr 1 then begin
      grow t;
      cell t k
    end
    else c
  in
  t.cells.(2 * c) <- k;
  t.cells.((2 * c) + 1) <- v;
  t.count <- t.count + 1

let remove t k =
  let cells = t.cells in
  let mask = (Array.length cells lsr 1) - 1 in
  let hole = ref (cell t k) in
  if cells.((2 * !hole) + 1) >= 0 then begin
    t.count <- t.count - 1;
    (* Walk the rest of the probe run; an entry moves into the hole
       unless its home cell lies cyclically in (hole, j], where its own
       probe would never reach the hole. *)
    let j = ref !hole and run = ref true in
    while !run do
      j := (!j + 1) land mask;
      if cells.((2 * !j) + 1) < 0 then run := false
      else begin
        let h = home t cells.(2 * !j) in
        let stays = if !hole <= !j then h > !hole && h <= !j else h > !hole || h <= !j in
        if not stays then begin
          cells.(2 * !hole) <- cells.(2 * !j);
          cells.((2 * !hole) + 1) <- cells.((2 * !j) + 1);
          hole := !j
        end
      end
    done;
    cells.((2 * !hole) + 1) <- -1
  end
