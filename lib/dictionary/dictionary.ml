type t = {
  by_string : (string, int) Hashtbl.t;
  mutable by_id : string array;  (* index = id; grows by doubling *)
  mutable next : int;
}

let max_ids = 1 lsl 31

let create ?(initial_size = 1024) () =
  {
    by_string = Hashtbl.create initial_size;
    by_id = Array.make (max initial_size 1) "";
    next = 0;
  }

let size d = d.next

let find d s = Hashtbl.find_opt d.by_string s

let mem d s = Hashtbl.mem d.by_string s

let encode d s =
  match Hashtbl.find_opt d.by_string s with
  | Some id -> id
  | None ->
      if d.next >= max_ids then invalid_arg "Dictionary.encode: id space exhausted";
      let id = d.next in
      if id >= Array.length d.by_id then begin
        let bigger = Array.make (2 * Array.length d.by_id) "" in
        Array.blit d.by_id 0 bigger 0 id;
        d.by_id <- bigger
      end;
      d.by_id.(id) <- s;
      Hashtbl.add d.by_string s id;
      d.next <- id + 1;
      id

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

let memory_words d =
  let string_words = fold (fun _ s acc -> acc + 1 + ((String.length s + 8) / 8)) d 0 in
  (* hash table ≈ 3 words per binding + bucket array; id array. *)
  string_words + (3 * d.next) + Array.length d.by_id
