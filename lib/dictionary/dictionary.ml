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
let empty = -1

let create ?(initial_size = 1024) () =
  let rec slots c = if 4 * initial_size <= 3 * c then c else slots (2 * c) in
  { slots = Array.make (slots 16) empty; by_id = Array.make (max initial_size 1) ""; next = 0 }

let size d = d.next

(* The slot holding [s] (hash [h]), or the empty slot where it goes. *)
let rec probe slots by_id s h i =
  let v = Array.unsafe_get slots i in
  if v = empty || (v lsr id_bits = h && String.equal by_id.(v land (max_ids - 1)) s) then i
  else probe slots by_id s h ((i + 1) land (Array.length slots - 1))

let slot d s h = probe d.slots d.by_id s h (h land (Array.length d.slots - 1))

let find d s =
  let v = d.slots.(slot d s (Hashtbl.hash s)) in
  if v = empty then None else Some (v land (max_ids - 1))

let mem d s = find d s <> None

let rec free slots i = if slots.(i) = empty then i else free slots ((i + 1) land (Array.length slots - 1))

let encode d s =
  let h = Hashtbl.hash s in
  let i = slot d s h in
  if d.slots.(i) <> empty then d.slots.(i) land (max_ids - 1)
  else begin
    let id = d.next in
    if id >= max_ids then invalid_arg "Dictionary.encode: id space exhausted";
    if id >= Array.length d.by_id then begin
      let bigger = Array.make (2 * id) "" in
      Array.blit d.by_id 0 bigger 0 id;
      d.by_id <- bigger
    end;
    d.by_id.(id) <- s;
    d.slots.(i) <- (h lsl id_bits) lor id;
    d.next <- id + 1;
    if 4 * d.next > 3 * Array.length d.slots then begin
      let slots = Array.make (2 * Array.length d.slots) empty in
      let mask = Array.length slots - 1 in
      Array.iter (fun v -> if v <> empty then slots.(free slots ((v lsr id_bits) land mask)) <- v) d.slots;
      d.slots <- slots
    end;
    id
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
