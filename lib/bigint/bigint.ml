(* Arbitrary-precision signed integers in sign-magnitude form.

   The magnitude is a little-endian [int array] of limbs in [0, base), with
   base = 2^30.  Limbs use 30 bits so that the product of two limbs plus a
   carry fits comfortably in OCaml's 63-bit native ints.  The canonical form
   has no trailing (most-significant) zero limbs and represents zero as the
   empty array with sign 0. *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

type t = { sign : int; mag : int array }
(* Invariants: [sign] is -1, 0 or 1; [sign = 0] iff [mag = [||]]; the last
   element of a non-empty [mag] is non-zero; every limb is in [0, base). *)

let zero = { sign = 0; mag = [||] }
let one = { sign = 1; mag = [| 1 |] }
let two = { sign = 1; mag = [| 2 |] }
let minus_one = { sign = -1; mag = [| 1 |] }

(* ------------------------------------------------------------------ *)
(* Magnitude helpers. All [mag_*] functions operate on canonical limb
   arrays and return canonical limb arrays. *)

let mag_is_zero m = Array.length m = 0

let mag_normalize m =
  let n = ref (Array.length m) in
  while !n > 0 && m.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length m then m else Array.sub m 0 !n

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec loop i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else loop (i - 1) in
    loop (la - 1)

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  mag_normalize r

(* Precondition: a >= b. *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  mag_normalize r

let karatsuba_threshold = 32

(* Split a magnitude at limb [m]: low part (first m limbs) and high part. *)
let mag_split a m =
  let la = Array.length a in
  if la <= m then (mag_normalize (Array.copy a), [||])
  else (mag_normalize (Array.sub a 0 m), mag_normalize (Array.sub a m (la - m)))

let rec mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else if la >= karatsuba_threshold && lb >= karatsuba_threshold then mag_mul_karatsuba a b
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let s = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- s land base_mask;
          carry := s lsr base_bits
        done;
        (* Propagate the final carry; it fits in one limb because
           ai * b.(j) < 2^60 and everything stays below 2^62. *)
        let k = ref (i + lb) in
        while !carry <> 0 do
          let s = r.(!k) + !carry in
          r.(!k) <- s land base_mask;
          carry := s lsr base_bits;
          incr k
        done
      end
    done;
    mag_normalize r
  end

(* Karatsuba: a*b = hi_a*hi_b * B^2m + ((hi_a+lo_a)(hi_b+lo_b) - hi*hi - lo*lo) * B^m
   + lo_a*lo_b, with B = base^m.  Sub-products recurse back into [mag_mul],
   so mixed sizes fall back to schoolbook below the threshold. *)
and mag_mul_karatsuba a b =
  let m = (Stdlib.max (Array.length a) (Array.length b) + 1) / 2 in
  let lo_a, hi_a = mag_split a m and lo_b, hi_b = mag_split b m in
  let z0 = mag_mul lo_a lo_b in
  let z2 = mag_mul hi_a hi_b in
  let z1_full = mag_mul (mag_add lo_a hi_a) (mag_add lo_b hi_b) in
  (* z1 = z1_full - z0 - z2 >= 0 *)
  let z1 = mag_sub (mag_sub z1_full z0) z2 in
  let shift_limbs x k =
    if mag_is_zero x then [||]
    else begin
      let r = Array.make (Array.length x + k) 0 in
      Array.blit x 0 r k (Array.length x);
      r
    end
  in
  mag_add z0 (mag_add (shift_limbs z1 m) (shift_limbs z2 (2 * m)))

let mag_mul_small a d =
  (* d in [0, base) *)
  if d = 0 || mag_is_zero a then [||]
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let s = (a.(i) * d) + !carry in
      r.(i) <- s land base_mask;
      carry := s lsr base_bits
    done;
    r.(la) <- !carry;
    mag_normalize r
  end

let mag_divmod_small a d =
  (* d in (0, base). Returns (quotient, remainder-as-int). *)
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (mag_normalize q, !r)

let mag_shift_left_bits a nbits =
  if mag_is_zero a || nbits = 0 then Array.copy a
  else begin
    let limb_shift = nbits / base_bits and bit_shift = nbits mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land base_mask);
      if bit_shift > 0 then r.(i + limb_shift + 1) <- r.(i + limb_shift + 1) lor (v lsr base_bits)
    done;
    mag_normalize r
  end

let mag_shift_right_bits a nbits =
  if mag_is_zero a || nbits = 0 then Array.copy a
  else begin
    let limb_shift = nbits / base_bits and bit_shift = nbits mod base_bits in
    let la = Array.length a in
    if limb_shift >= la then [||]
    else begin
      let lr = la - limb_shift in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift > 0 && i + limb_shift + 1 < la then
            (a.(i + limb_shift + 1) lsl (base_bits - bit_shift)) land base_mask
          else 0
        in
        r.(i) <- lo lor hi
      done;
      mag_normalize r
    end
  end

let limb_bits v =
  let rec loop v acc = if v = 0 then acc else loop (v lsr 1) (acc + 1) in
  loop v 0

let mag_num_bits a =
  let la = Array.length a in
  if la = 0 then 0 else ((la - 1) * base_bits) + limb_bits a.(la - 1)

(* Knuth TAOCP vol. 2, Algorithm 4.3.1 D.  Both arguments canonical,
   [Array.length b >= 2], returns (quotient, remainder). *)
let mag_divmod_knuth a b =
  let shift = base_bits - limb_bits b.(Array.length b - 1) in
  (* Normalize so the top limb of the divisor has its high bit set. *)
  let u = mag_shift_left_bits a shift and v = mag_shift_left_bits b shift in
  let n = Array.length v in
  let m = Array.length u - n in
  if m < 0 then ([||], Array.copy a)
  else begin
    (* Work array with one extra high limb. *)
    let w = Array.make (Array.length u + 1) 0 in
    Array.blit u 0 w 0 (Array.length u);
    let q = Array.make (m + 1) 0 in
    let vtop = v.(n - 1) in
    let vsecond = if n >= 2 then v.(n - 2) else 0 in
    for j = m downto 0 do
      (* Estimate the quotient digit from the top two limbs. *)
      let top2 = (w.(j + n) lsl base_bits) lor w.(j + n - 1) in
      let qhat = ref (top2 / vtop) in
      let rhat = ref (top2 mod vtop) in
      if !qhat >= base then begin
        qhat := base - 1;
        rhat := top2 - (!qhat * vtop)
      end;
      (* Refine: decrease qhat while qhat*vsecond > rhat*base + next limb.
         This function is only called with n >= 2. *)
      let continue = ref true in
      while !continue do
        if !rhat >= base then continue := false
        else if !qhat * vsecond > (!rhat lsl base_bits) lor w.(j + n - 2) then begin
          decr qhat;
          rhat := !rhat + vtop
        end
        else continue := false
      done;
      (* Multiply-and-subtract: w[j .. j+n] -= qhat * v. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr base_bits;
        let s = w.(i + j) - (p land base_mask) - !borrow in
        if s < 0 then begin
          w.(i + j) <- s + base;
          borrow := 1
        end
        else begin
          w.(i + j) <- s;
          borrow := 0
        end
      done;
      let s = w.(j + n) - !carry - !borrow in
      if s < 0 then begin
        (* qhat was one too large: add back. *)
        w.(j + n) <- s + base;
        decr qhat;
        let carry2 = ref 0 in
        for i = 0 to n - 1 do
          let t = w.(i + j) + v.(i) + !carry2 in
          w.(i + j) <- t land base_mask;
          carry2 := t lsr base_bits
        done;
        w.(j + n) <- (w.(j + n) + !carry2) land base_mask
      end
      else w.(j + n) <- s;
      q.(j) <- !qhat
    done;
    let r = mag_normalize (Array.sub w 0 n) in
    (mag_normalize q, mag_shift_right_bits r shift)
  end

let mag_divmod a b =
  if mag_is_zero b then raise Division_by_zero
  else if mag_compare a b < 0 then ([||], Array.copy a)
  else if Array.length b = 1 then begin
    let q, r = mag_divmod_small a b.(0) in
    (q, if r = 0 then [||] else [| r |])
  end
  else mag_divmod_knuth a b

(* ------------------------------------------------------------------ *)
(* Signed layer. *)

let make sign mag = if mag_is_zero mag then zero else { sign; mag }

let of_int n =
  if n = 0 then zero
  else begin
    let sign = if n < 0 then -1 else 1 in
    (* Avoid [abs min_int] overflow by carving limbs with arithmetic that is
       safe on min_int: work limb by limb on the absolute value computed via
       negative residues. *)
    let rec limbs n acc =
      if n = 0 then acc else limbs (n lsr base_bits) ((n land base_mask) :: acc)
    in
    let n_abs = if n = min_int then n else abs n in
    if n = min_int then begin
      (* min_int = -(2^62): its magnitude does not fit in [abs]. *)
      ignore n_abs;
      let mag = mag_shift_left_bits [| 1 |] 62 in
      { sign = -1; mag }
    end
    else begin
      (* [limbs] accumulates most-significant-first; reverse to little-endian. *)
      let l = List.rev (limbs n_abs []) in
      { sign; mag = Array.of_list l }
    end
  end

let sign x = x.sign
let is_zero x = x.sign = 0
let is_one x = x.sign = 1 && Array.length x.mag = 1 && x.mag.(0) = 1
let is_negative x = x.sign < 0
let is_even x = x.sign = 0 || x.mag.(0) land 1 = 0
let num_bits x = mag_num_bits x.mag

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then mag_compare a.mag b.mag
  else mag_compare b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let hash x =
  let h = ref (x.sign + 17) in
  Array.iter (fun limb -> h := (!h * 1000003) lxor limb) x.mag;
  !h land max_int

let neg x = if x.sign = 0 then zero else { x with sign = -x.sign }
let abs x = if x.sign < 0 then { x with sign = 1 } else x

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then { sign = a.sign; mag = mag_add a.mag b.mag }
  else begin
    let c = mag_compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then { sign = a.sign; mag = mag_sub a.mag b.mag }
    else { sign = b.sign; mag = mag_sub b.mag a.mag }
  end

let sub a b = add a (neg b)
let succ x = add x one
let pred x = sub x one

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else { sign = a.sign * b.sign; mag = mag_mul a.mag b.mag }

let mul_int a n =
  if n = 0 || a.sign = 0 then zero
  else if n > 0 && n < base then make a.sign (mag_mul_small a.mag n)
  else if n < 0 && n > -base then make (-a.sign) (mag_mul_small a.mag (-n))
  else mul a (of_int n)

let add_int a n = add a (of_int n)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero
  else begin
    let qm, rm = mag_divmod a.mag b.mag in
    let q = make (a.sign * b.sign) qm in
    let r = make a.sign rm in
    (q, r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let ediv_rem a b =
  let q, r = divmod a b in
  if r.sign >= 0 then (q, r)
  else if b.sign > 0 then (pred q, add r b)
  else (succ q, sub r b)

let rec gcd_mag a b = if mag_is_zero b then a else gcd_mag b (snd (mag_divmod a b))

let gcd a b = make 1 (gcd_mag (abs a).mag (abs b).mag)

let lcm a b =
  if a.sign = 0 || b.sign = 0 then zero
  else begin
    let g = gcd a b in
    abs (mul (div a g) b)
  end

let pow x n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent"
  else begin
    let rec loop acc b n =
      if n = 0 then acc
      else begin
        let acc = if n land 1 = 1 then mul acc b else acc in
        loop acc (mul b b) (n lsr 1)
      end
    in
    loop one x n
  end

let shift_left x n =
  if n < 0 then invalid_arg "Bigint.shift_left: negative shift"
  else make x.sign (mag_shift_left_bits x.mag n)

let shift_right x n =
  if n < 0 then invalid_arg "Bigint.shift_right: negative shift"
  else make x.sign (mag_shift_right_bits x.mag n)

let fits_int x =
  (* Native ints cover [-2^62, 2^62 - 1]; 2^62 itself needs 63 bits. *)
  num_bits x <= 62
  || (x.sign < 0 && num_bits x = 63 && mag_compare x.mag (mag_shift_left_bits [| 1 |] 62) = 0)

let to_int_opt x =
  if not (fits_int x) then None
  else begin
    let v = ref 0 in
    for i = Array.length x.mag - 1 downto 0 do
      v := (!v lsl base_bits) lor x.mag.(i)
    done;
    Some (if x.sign < 0 then - !v else !v)
  end

let to_float x =
  let v = ref 0.0 in
  let b = float_of_int base in
  for i = Array.length x.mag - 1 downto 0 do
    v := (!v *. b) +. float_of_int x.mag.(i)
  done;
  if x.sign < 0 then -. !v else !v

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let chunk = 1_000_000_000 in
    (* Base-10^9 digits of a non-zero magnitude: the leading one apart
       from the rest, so it is printed without zero padding. *)
    let rec digits m rest =
      let q, r = mag_divmod_small m chunk in
      if mag_is_zero q then (r, rest) else digits q (r :: rest)
    in
    if x.sign < 0 then Buffer.add_char buf '-';
    let first, rest = digits x.mag [] in
    Buffer.add_string buf (string_of_int first);
    List.iter (fun d -> Buffer.add_string buf (Printf.sprintf "%09d" d)) rest;
    Buffer.contents buf
  end

exception Does_not_fit of { digits : string; bits : int }

let () =
  Printexc.register_printer (function
    | Does_not_fit { digits; bits } ->
      Some
        (Printf.sprintf "Bigint.to_int: %s (%d bits) does not fit in a native int" digits bits)
    | _ -> None)

let to_int x =
  match to_int_opt x with
  | Some n -> n
  | None -> raise (Does_not_fit { digits = to_string x; bits = num_bits x })

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string"
  else begin
    let sign, start =
      match s.[0] with
      | '-' -> (-1, 1)
      | '+' -> (1, 1)
      | _ -> (1, 0)
    in
    if start >= len then invalid_arg "Bigint.of_string: no digits"
    else begin
      let acc = ref zero in
      let seen = ref false in
      for i = start to len - 1 do
        match s.[i] with
        | '0' .. '9' as c ->
          seen := true;
          acc := add_int (mul_int !acc 10) (Char.code c - Char.code '0')
        | '_' -> ()
        | _ -> invalid_arg "Bigint.of_string: invalid character"
      done;
      if not !seen then invalid_arg "Bigint.of_string: no digits"
      else if sign < 0 then neg !acc
      else !acc
    end
  end

let pp fmt x = Format.pp_print_string fmt (to_string x)
