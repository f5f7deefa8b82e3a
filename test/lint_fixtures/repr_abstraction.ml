(* Fixture: repr-abstraction.  Scanned as lib/core/, outside the codec
   home lib/vectors/, so naming a codec module fires — bare or
   dot-qualified.  Strings never fire, and waivers only count inside
   comments. *)

let bad1 xs = Packed_ivec.of_array xs

let bad2 v i = Vectors.Packed_ivec.get v i

let ok1 xs = Packed_ivec.of_array xs (* lint: allow repr-abstraction *)

(* lint: allow repr-abstraction *)
let ok2 v i = Packed_ivec.get v i

let named = "Packed_ivec mentioned in a string literal is fine"

let smuggled = "lint: allow repr-abstraction"
let bad3 xs = Packed_ivec.of_array xs
