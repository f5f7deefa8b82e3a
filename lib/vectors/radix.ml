(* The batch length's bit length [b] sets how many passes the keys
   need — ids below [2^(b·d)] sort in [d] passes — and the digit width
   spreads the keys' own bits evenly over those passes, so the count
   array has at most about [2n] cells and no more than the keys use
   (a 40-value predicate column takes one pass over 64 counts).  The
   passes ping-pong between [perm] and one scratch array. *)
let bit_length n =
  let rec go b = if n lsr b = 0 then b else go (b + 1) in
  max 1 (go 0)

let sort keys perm =
  let n = Array.length perm in
  let top = ref 0 in
  for i = 0 to n - 1 do
    let k = keys.(perm.(i)) in
    if k < 0 then invalid_arg "Radix.sort: negative key";
    if k > !top then top := k
  done;
  let bits = bit_length !top in
  let passes = (bits + bit_length n - 1) / bit_length n in
  let w = (bits + passes - 1) / passes in
  let mask = (1 lsl w) - 1 in
  let count = Array.make (mask + 2) 0 in
  let src = ref perm and dst = ref (Array.make n 0) in
  let shift = ref 0 in
  while !shift = 0 || !top lsr !shift > 0 do
    let s = !src and d = !dst and sh = !shift in
    Array.fill count 0 (mask + 2) 0;
    for i = 0 to n - 1 do
      let c = ((Array.unsafe_get keys (Array.unsafe_get s i) lsr sh) land mask) + 1 in
      Array.unsafe_set count c (Array.unsafe_get count c + 1)
    done;
    for c = 1 to mask + 1 do
      Array.unsafe_set count c (Array.unsafe_get count c + Array.unsafe_get count (c - 1))
    done;
    for i = 0 to n - 1 do
      let e = Array.unsafe_get s i in
      let c = (Array.unsafe_get keys e lsr sh) land mask in
      let at = Array.unsafe_get count c in
      Array.unsafe_set d at e;
      Array.unsafe_set count c (at + 1)
    done;
    src := d;
    dst := s;
    shift := sh + w
  done;
  !src
