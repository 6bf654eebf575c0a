(* Number fields the simplex solver can pivot over.

   The solver is written as a functor so the same code runs over exact
   rationals (reference, used to certify stall-time optimality claims) and
   over floats (fast path; see the hybrid driver in {!Simplex.solve_exact}).
   The only subtlety is [is_zero]/sign tests: exact for rationals, but
   tolerance-based for floats.

   Besides scalar arithmetic a field supplies the two vector kernels the
   revised simplex's inner loops reduce to ({!Revised}: applying an eta to
   a vector, and the skip-zero dot product of BTRAN and pricing).  Without
   flambda a functor body cannot specialise [F.t = float]: every [F.sub] is
   an indirect call and every array element a boxed float.  Written inside
   [Float_field], where the type is known, the same loops run on unboxed
   floats.  Each kernel performs exactly the scalar operations of the loop
   it replaces, in the same order and with the same [is_zero] tests, so
   float results are bit-identical and pivot paths do not move. *)

module type FIELD = sig
  type t

  val zero : t
  val one : t
  val of_rat : Rat.t -> t
  val to_float : t -> float
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t
  val compare : t -> t -> int

  val is_zero : t -> bool
  (** Whether the value should be treated as exactly zero by pivoting. *)

  val pp : Format.formatter -> t -> unit

  val eta_update : t array -> int array -> t array -> t -> unit
  (** [eta_update x ei ev piv] does [x.(ei.(q)) <- sub x.(ei.(q)) (mul ev.(q) piv)]
      for [q] in increasing order. *)

  val eta_update_tracked :
    t array -> int array -> t array -> t -> mark:bool array -> nzl:int array -> int -> int
  (** [eta_update_tracked x ei ev piv ~mark ~nzl n] is {!eta_update} that
      first records each written row [i] not yet in [mark]: sets
      [mark.(i)] and appends [i] to [nzl] after its first [n] entries.
      Returns the new entry count. *)

  val dot_sub : t -> t array -> int array -> t array -> t
  (** [dot_sub s y ri rv] folds [s <- sub s (mul y.(ri.(q)) rv.(q))] over
      [q] in increasing order, skipping the [q] where [is_zero y.(ri.(q))]. *)
end

module Rat_field : FIELD with type t = Rat.t = struct
  type t = Rat.t

  let zero = Rat.zero
  let one = Rat.one
  let of_rat x = x
  let to_float = Rat.to_float
  let add = Rat.add
  let sub = Rat.sub
  let mul = Rat.mul
  let div = Rat.div
  let neg = Rat.neg
  let compare = Rat.compare
  let is_zero = Rat.is_zero
  let pp = Rat.pp

  let eta_update x ei ev piv =
    for q = 0 to Array.length ei - 1 do
      let i = ei.(q) in
      x.(i) <- Rat.sub x.(i) (Rat.mul ev.(q) piv)
    done

  let eta_update_tracked x ei ev piv ~mark ~nzl n =
    let n = ref n in
    for q = 0 to Array.length ei - 1 do
      let i = ei.(q) in
      if not mark.(i) then begin
        mark.(i) <- true;
        nzl.(!n) <- i;
        incr n
      end;
      x.(i) <- Rat.sub x.(i) (Rat.mul ev.(q) piv)
    done;
    !n

  let dot_sub s y ri rv =
    let s = ref s in
    for q = 0 to Array.length ri - 1 do
      let yi = y.(ri.(q)) in
      if not (Rat.is_zero yi) then s := Rat.sub !s (Rat.mul yi rv.(q))
    done;
    !s
end

module Float_field : FIELD with type t = float = struct
  type t = float

  let eps = 1e-9
  let zero = 0.0
  let one = 1.0
  let of_rat = Rat.to_float
  let to_float x = x
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )
  let neg x = -.x
  let compare a b = if Float.abs (a -. b) <= eps then 0 else Float.compare a b
  let is_zero x = Float.abs x <= eps
  let pp fmt x = Format.fprintf fmt "%.12g" x

  (* The annotations pin [float array], so element reads and writes are
     unboxed; ocamlopt emits a multiply then a subtract (never a fused
     multiply-add), exactly what the generic [sub x (mul a b)] computes. *)
  let eta_update (x : float array) (ei : int array) (ev : float array) (piv : float) =
    for q = 0 to Array.length ei - 1 do
      let i = ei.(q) in
      x.(i) <- x.(i) -. (ev.(q) *. piv)
    done

  let eta_update_tracked (x : float array) (ei : int array) (ev : float array) (piv : float)
      ~(mark : bool array) ~(nzl : int array) n =
    let n = ref n in
    for q = 0 to Array.length ei - 1 do
      let i = ei.(q) in
      if not mark.(i) then begin
        mark.(i) <- true;
        nzl.(!n) <- i;
        incr n
      end;
      x.(i) <- x.(i) -. (ev.(q) *. piv)
    done;
    !n

  let dot_sub (s : float) (y : float array) (ri : int array) (rv : float array) =
    let s = ref s in
    for q = 0 to Array.length ri - 1 do
      let yi = y.(ri.(q)) in
      if not (Float.abs yi <= eps) then s := !s -. (yi *. rv.(q))
    done;
    !s
end
