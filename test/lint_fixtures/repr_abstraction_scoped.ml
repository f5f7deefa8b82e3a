(* Fixture: repr-abstraction, negative case.  Scanned as lib/vectors/,
   the codec home, where addressing the codec modules is the whole
   point — nothing fires. *)

let widths xs = Packed_ivec.of_array xs

let cell v i = Packed_ivec.get v i
