(* The spellings by id, and a linear-probing index over them in one
   [int array] (power-of-two length, load ≤ 3/4): a slot is [empty] or
   packs an id (the low [id_bits]) under its string's hash, so probes
   and resizes compare and re-place hash bits without reading strings. *)
type t = {
  mutable slots : int array;
  mutable by_id : string array;  (* index = id; grows by doubling *)
  mutable next : int;
}

let id_bits = 31
let max_ids = 1 lsl id_bits
let hash_mask = max_ids - 1
let empty = -1

let create ?(initial_size = 1024) () =
  let rec slots c = if 4 * initial_size <= 3 * c then c else slots (2 * c) in
  { slots = Array.make (slots 16) empty; by_id = Array.make (max initial_size 1) ""; next = 0 }

let size d = d.next

(* A probe names its spelling in three pieces: a first byte, a body
   [s.[bpos .. bpos + blen - 1]] and a last byte.  A byte range of at
   least two bytes splits that way, and so does an IRI's spelling
   ('<', the IRI, '>'), so neither form is copied to be looked up.  A
   range of one byte is [first = last] with [blen = -1], the empty
   range ['\000'] twice with [blen = -2]. *)
external get64u : string -> int -> int64 = "%caml_string_get64u"

let mix h w = (h lxor w) * 0x2545F4914F6CDD1D

let word s i = Int64.to_int (get64u s i)

(* The body eight bytes at a time, its last word read where it ends (so
   it may overlap the one before); a body under eight bytes byte by
   byte.  Seeded with [blen], so the two readings never meet. *)
let rec words s i last h = if i < last then words s (i + 8) last (mix h (word s i)) else mix h (word s last)

let rec bytes s i stop w = if i < stop then bytes s (i + 1) stop ((w lsl 8) lor Char.code (String.unsafe_get s i)) else w

let body_hash s bpos blen =
  if blen >= 8 then words s bpos (bpos + blen - 8) blen else mix blen (bytes s bpos (bpos + blen) 1)

(* Fits the slot's bits above the id: [hash_mask] keeps 31 bits, so a
   slot stays non-negative and never reads as [empty]. *)
let hash first s bpos blen last =
  let h = mix (body_hash s bpos blen) ((Char.code first lsl 8) lor Char.code last) in
  (* A product's low bits see only its factors' low bits, and a word's
     last bytes are its high bits: shifts bring them down to the bits
     that pick a slot. *)
  let h = (h lxor (h lsr 31)) * 0x3C6EF372FE94F82B in
  let h = (h lxor (h lsr 29)) * 0x1B873593CC9E2D51 in
  (h lxor (h lsr 32)) land hash_mask

(* [k.[i .. i + n - 1] = s.[j .. j + n - 1]], by words as [words] reads
   them. *)
let rec same_words k i s j last =
  if i < last then (get64u k i : int64) = get64u s j && same_words k (i + 8) s (j + 8) last
  else (get64u k last : int64) = get64u s (j + last - i)

let rec same_bytes k i s j n =
  n <= 0 || (String.unsafe_get k i = String.unsafe_get s j && same_bytes k (i + 1) s (j + 1) (n - 1))

let same k i s j n = if n >= 8 then same_words k i s j (i + n - 8) else same_bytes k i s j n

let spells k first s bpos blen last =
  let n = String.length k in
  n = blen + 2
  && (n = 0
     || String.unsafe_get k 0 = first
        && String.unsafe_get k (n - 1) = last
        && same k 1 s bpos blen)

(* The slot holding the spelling (hash [h]), or the empty slot where it
   goes. *)
let rec probe slots by_id h first s bpos blen last i =
  let v = Array.unsafe_get slots i in
  if
    v = empty
    || (v lsr id_bits = h && spells (Array.unsafe_get by_id (v land (max_ids - 1))) first s bpos blen last)
  then i
  else probe slots by_id h first s bpos blen last ((i + 1) land (Array.length slots - 1))

let rec free slots i = if slots.(i) = empty then i else free slots ((i + 1) land (Array.length slots - 1))

(* Files [spelling] under a fresh id in the empty slot [i]. *)
let add d i h spelling =
  let id = d.next in
  if id >= max_ids then invalid_arg "Dictionary.encode: id space exhausted";
  if id >= Array.length d.by_id then begin
    let bigger = Array.make (2 * id) "" in
    Array.blit d.by_id 0 bigger 0 id;
    d.by_id <- bigger
  end;
  d.by_id.(id) <- spelling;
  d.slots.(i) <- (h lsl id_bits) lor id;
  d.next <- id + 1;
  if 4 * d.next > 3 * Array.length d.slots then begin
    let slots = Array.make (2 * Array.length d.slots) empty in
    let mask = Array.length slots - 1 in
    Array.iter (fun v -> if v <> empty then slots.(free slots ((v lsr id_bits) land mask)) <- v) d.slots;
    d.slots <- slots
  end;
  id

let check_range what s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg ("Dictionary." ^ what)

let edge s len at = if len = 0 then '\000' else String.unsafe_get s at

let find_sub d s pos len =
  check_range "find_sub" s pos len;
  let first = edge s len pos and last = edge s len (pos + len - 1) in
  let h = hash first s (pos + 1) (len - 2) last in
  let v = d.slots.(probe d.slots d.by_id h first s (pos + 1) (len - 2) last (h land (Array.length d.slots - 1))) in
  if v = empty then -1 else v land (max_ids - 1)

let encode_sub d s pos len =
  check_range "encode_sub" s pos len;
  let first = edge s len pos and last = edge s len (pos + len - 1) in
  let h = hash first s (pos + 1) (len - 2) last in
  let i = probe d.slots d.by_id h first s (pos + 1) (len - 2) last (h land (Array.length d.slots - 1)) in
  let v = d.slots.(i) in
  if v <> empty then v land (max_ids - 1)
  else add d i h (if pos = 0 && len = String.length s then s else String.sub s pos len)

let hash_sub s pos len =
  check_range "hash_sub" s pos len;
  hash (edge s len pos) s (pos + 1) (len - 2) (edge s len (pos + len - 1))

let find d s = match find_sub d s 0 (String.length s) with -1 -> None | id -> Some id

let mem d s = find_sub d s 0 (String.length s) >= 0

let encode d s = encode_sub d s 0 (String.length s)

let iri_slot d iri h = probe d.slots d.by_id h '<' iri 0 (String.length iri) '>' (h land (Array.length d.slots - 1))

let find_iri d iri =
  let v = d.slots.(iri_slot d iri (hash '<' iri 0 (String.length iri) '>')) in
  if v = empty then -1 else v land (max_ids - 1)

let encode_iri d iri =
  let h = hash '<' iri 0 (String.length iri) '>' in
  let i = iri_slot d iri h in
  let v = d.slots.(i) in
  if v <> empty then v land (max_ids - 1)
  else begin
    let n = String.length iri in
    let b = Bytes.create (n + 2) in
    Bytes.set b 0 '<';
    Bytes.blit_string iri 0 b 1 n;
    Bytes.set b (n + 1) '>';
    add d i h (Bytes.unsafe_to_string b)
  end

let decode d id =
  if id < 0 || id >= d.next then
    invalid_arg (Printf.sprintf "Dictionary.decode: unknown id %d" id);
  d.by_id.(id)

let iter f d =
  for id = 0 to d.next - 1 do
    f id d.by_id.(id)
  done

let fold f d acc =
  let acc = ref acc in
  iter (fun id s -> acc := f id s !acc) d;
  !acc

(* Exact: the record, both arrays, and each string's header and padded
   bytes. *)
let memory_words d =
  fold (fun _ s acc -> acc + 1 + ((String.length s + 8) / 8)) d
    (4 + Array.length d.slots + 1 + Array.length d.by_id + 1)
