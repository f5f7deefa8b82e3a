open Vectors

(* A window onto an index's key stream: a zero-copy sorted key slice,
   the precomputed triple total, and a function materialising the j-th
   terminal-list slice on demand.  Views are transient (constructed per
   lookup, never stored).  The keys are one [Sorted_ivec.t], so every
   search goes through its kernels. *)
type t = {
  keys : Sorted_ivec.t;
  total : int;
  payload : int -> Sorted_ivec.t;
}

let view ~keys ~total ~payload = { keys; total; payload }

let key_vector v = v.keys

let length v = Sorted_ivec.length v.keys

let total v = v.total

let key_at v i = Sorted_ivec.get v.keys i

let index_geq v x = Sorted_ivec.index_geq v.keys x

let search_from v ~from x = Sorted_ivec.search_from v.keys ~from x

let find v key =
  let i = index_geq v key in
  if i < length v && key_at v i = key then Some (v.payload i) else None

let payload_at v i =
  if i < 0 || i >= length v then invalid_arg "Pair_vector.payload_at";
  v.payload i

let keys v = Sorted_ivec.copy v.keys

let iter f v =
  for i = 0 to length v - 1 do
    f (key_at v i) (v.payload i)
  done

let check_invariant v =
  Sorted_ivec.check_invariant v.keys;
  let sum = ref 0 in
  iter (fun _ l -> sum := !sum + Sorted_ivec.length l) v;
  assert (!sum = v.total)
