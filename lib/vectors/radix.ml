(* Digit width [w] = bit length of the batch length: the count array
   has about [2n] cells, and ids below [n^d] sort in [d] passes.  The
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
  let w = bit_length n in
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
