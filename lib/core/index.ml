(* An ordering is either the mutable hash-of-pair-vectors build form or
   a flat compressed CSR layout: one sorted header stream, a packed
   row-pointer stream into one concatenated key stream, and a second
   packed row-pointer stream into one concatenated terminal stream.
   The flat form exists because the store's memory is dominated by the
   per-object overhead of hundreds of thousands of tiny lists and
   vectors, not by element widths — flattening removes the objects,
   bit-packing then shrinks the payload.  All reads go through
   [Sorted_ivec] slices / [Pair_vector] views, so the query layers
   never see the difference; mutation of a flat index raises, and the
   store swaps representations wholesale instead. *)

type hashed = {
  headers : (int, Pair_vector.t) Hashtbl.t;
  sorted : Vectors.Sorted_ivec.t;
      (* Header ids, kept sorted so that merge-scans over a whole
         ordering can stream headers without re-sorting the hash keys
         (O(h log h)) per call. *)
  mutable pending : int list;
      (* Headers a bulk pass created below [sorted]'s maximum and has
         not yet merged into it: the hashtable already holds them, and
         {!seal} moves them into [sorted] in one pass.  Empty outside a
         bulk pass — every read of [sorted] checks that. *)
}

type flat = {
  n_headers : int;
  fhdr_s : Vectors.Sorted_ivec.stream; (* h sorted header ids *)
  fheaders : Vectors.Sorted_ivec.t; (* whole-stream slice of fhdr_s *)
  fkey_off : Vectors.Sorted_ivec.stream; (* h+1 offsets into fkeys *)
  fkeys : Vectors.Sorted_ivec.stream; (* E second-level keys, one sorted run per header *)
  flist_off : Vectors.Sorted_ivec.stream; (* E+1 offsets into fterms *)
  fterms : Vectors.Sorted_ivec.stream; (* N terminal ids, one sorted run per (header,key) *)
}

type t = Hashed of hashed | Flat of flat

let create ?(initial_headers = 64) () =
  Hashed
    { headers = Hashtbl.create initial_headers; sorted = Vectors.Sorted_ivec.create (); pending = [] }

let is_flat = function Flat _ -> true | Hashed _ -> false

let header_count = function Hashed h -> Hashtbl.length h.headers | Flat f -> f.n_headers

let frozen op = invalid_arg ("Index." ^ op ^ ": flat compressed index is immutable")

(* The r-th header's pair vector, as a view over the streams. *)
let flat_vector f r =
  let k0 = Vectors.Sorted_ivec.stream_get f.fkey_off r in
  let k1 = Vectors.Sorted_ivec.stream_get f.fkey_off (r + 1) in
  let l0 = Vectors.Sorted_ivec.stream_get f.flist_off k0 in
  let l1 = Vectors.Sorted_ivec.stream_get f.flist_off k1 in
  Pair_vector.view
    ~keys:(Vectors.Sorted_ivec.slice f.fkeys ~off:k0 ~len:(k1 - k0))
    ~total:(l1 - l0)
    ~payload:(fun j ->
      let a = Vectors.Sorted_ivec.stream_get f.flist_off (k0 + j) in
      let b = Vectors.Sorted_ivec.stream_get f.flist_off (k0 + j + 1) in
      Vectors.Sorted_ivec.slice f.fterms ~off:a ~len:(b - a))

let flat_rank f h =
  let r = Vectors.Sorted_ivec.index_geq f.fheaders h in
  if r < f.n_headers && Vectors.Sorted_ivec.get f.fheaders r = h then Some r else None

let find_vector t h =
  match t with
  | Hashed t -> Hashtbl.find_opt t.headers h
  | Flat f -> ( match flat_rank f h with Some r -> Some (flat_vector f r) | None -> None)

(* A header above every sorted one is an O(1) append either way; only
   a bulk pass defers the others, whose one-by-one insertion would each
   move the whole tail of [sorted]. *)
let create_vector ~defer t h =
  match t with
  | Flat _ -> frozen "get_or_create_vector"
  | Hashed t -> (
      match Hashtbl.find_opt t.headers h with
      | Some v -> v
      | None ->
          let v = Pair_vector.create () in
          Hashtbl.add t.headers h v;
          let n = Vectors.Sorted_ivec.length t.sorted in
          if defer && n > 0 && h < Vectors.Sorted_ivec.get t.sorted (n - 1) then
            t.pending <- h :: t.pending
          else ignore (Vectors.Sorted_ivec.add t.sorted h);
          v)

let get_or_create_vector t h = create_vector ~defer:false t h

let seal = function
  | Flat _ -> ()
  | Hashed t ->
      match t.pending with
      | [] -> ()
      | pending ->
          let a = Array.of_list pending in
          t.pending <- [];
          Array.stable_sort Int.compare a;
          Vectors.Sorted_ivec.merge_sorted t.sorted a

let pending_headers = function Flat _ -> 0 | Hashed t -> List.length t.pending

let sealed op t =
  match t.pending with [] -> () | _ -> invalid_arg ("Index." ^ op ^ ": unsealed bulk pass")

let get_or_create_list table key =
  match Hashtbl.find_opt table key with
  | Some l -> l
  | None ->
      let l = Vectors.Sorted_ivec.create ~capacity:2 () in
      Hashtbl.add table key l;
      l

let link_with ~defer index ~first ~second l =
  let v = create_vector ~defer index first in
  ignore (Pair_vector.get_or_insert v second (fun () -> l));
  Pair_vector.bump_total v 1

let link = link_with ~defer:false
let link_bulk = link_with ~defer:true

let find_list t first second =
  match t with
  | Hashed _ -> (
      match find_vector t first with None -> None | Some v -> Pair_vector.find v second)
  | Flat f -> (
      (* Straight to the terminal slice: two packed-offset reads after
         the two key binary searches, no intermediate view. *)
      match flat_rank f first with
      | None -> None
      | Some r ->
          let k0 = Vectors.Sorted_ivec.stream_get f.fkey_off r in
          let k1 = Vectors.Sorted_ivec.stream_get f.fkey_off (r + 1) in
          let keys = Vectors.Sorted_ivec.slice f.fkeys ~off:k0 ~len:(k1 - k0) in
          let j = Vectors.Sorted_ivec.index_geq keys second in
          if j < k1 - k0 && Vectors.Sorted_ivec.get keys j = second then begin
            let a = Vectors.Sorted_ivec.stream_get f.flist_off (k0 + j) in
            let b = Vectors.Sorted_ivec.stream_get f.flist_off (k0 + j + 1) in
            Some (Vectors.Sorted_ivec.slice f.fterms ~off:a ~len:(b - a))
          end
          else None)

let remove_header t h =
  match t with
  | Flat _ -> frozen "remove_header"
  | Hashed t ->
      sealed "remove_header" t;
      if Hashtbl.mem t.headers h then begin
        Hashtbl.remove t.headers h;
        ignore (Vectors.Sorted_ivec.remove t.sorted h);
        true
      end
      else false

let unlink index ~first ~second ~list_empty =
  match find_vector index first with
  | None -> invalid_arg "Index.unlink: no such header"
  | Some v ->
      Pair_vector.bump_total v (-1);
      if list_empty then begin
        ignore (Pair_vector.remove v second);
        if Pair_vector.length v = 0 then ignore (remove_header index first)
      end

let iter f t =
  match t with
  | Hashed t -> Hashtbl.iter f t.headers
  | Flat fl ->
      for r = 0 to fl.n_headers - 1 do
        f (Vectors.Sorted_ivec.get fl.fheaders r) (flat_vector fl r)
      done

let iter_sorted f t =
  match t with
  | Hashed t ->
      sealed "iter_sorted" t;
      Vectors.Sorted_ivec.iter (fun h -> f h (Hashtbl.find t.headers h)) t.sorted
  | Flat _ -> iter f t (* flat iteration is already in ascending header order *)

let headers t =
  match t with
  | Hashed t ->
      sealed "headers" t;
      Vectors.Sorted_ivec.copy t.sorted
  | Flat f -> Vectors.Sorted_ivec.copy f.fheaders

let headers_view = function
  | Hashed t ->
      sealed "headers_view" t;
      t.sorted
  | Flat f -> f.fheaders

let total = function
  | Hashed t -> Hashtbl.fold (fun _ v acc -> acc + Pair_vector.total v) t.headers 0
  | Flat f -> Vectors.Sorted_ivec.stream_length f.fterms

(* Exact accounting.  Hashed: the table's own array + 4 words per
   entry (bucket cons: header, key, value, next) + each pair vector.
   Flat: the four streams, the header slice, and the spine records. *)
let memory_words = function
  | Hashed t ->
      let stats = Hashtbl.stats t.headers in
      Hashtbl.fold (fun _ v acc -> acc + 4 + Pair_vector.memory_words v) t.headers
        (stats.Hashtbl.num_buckets + 4)
      + Vectors.Sorted_ivec.memory_words t.sorted
  | Flat f ->
      2 (* Flat box *) + 8 (* flat record *)
      + Vectors.Sorted_ivec.memory_words f.fheaders
      + Vectors.Sorted_ivec.stream_memory_words f.fhdr_s
      + Vectors.Sorted_ivec.stream_memory_words f.fkey_off
      + Vectors.Sorted_ivec.stream_memory_words f.fkeys
      + Vectors.Sorted_ivec.stream_memory_words f.flist_off
      + Vectors.Sorted_ivec.stream_memory_words f.fterms

(* Rebuild any index as a flat bit-packed one: header, key and
   terminal streams plus the two row-pointer streams, all with O(1)
   cell reads. *)
let compress t =
  let h = header_count t in
  let e = ref 0 and n = ref 0 in
  iter
    (fun _ v ->
      e := !e + Pair_vector.length v;
      n := !n + Pair_vector.total v)
    t;
  let e = !e and n = !n in
  let hdrs = Array.make (max h 1) 0 in
  let key_off = Array.make (h + 1) 0 in
  let keys = Array.make (max e 1) 0 in
  let list_off = Array.make (e + 1) 0 in
  let terms = Array.make (max n 1) 0 in
  let hi = ref 0 and ei = ref 0 and ni = ref 0 in
  iter_sorted
    (fun hdr v ->
      hdrs.(!hi) <- hdr;
      key_off.(!hi) <- !ei;
      incr hi;
      Pair_vector.iter
        (fun key list ->
          keys.(!ei) <- key;
          list_off.(!ei) <- !ni;
          incr ei;
          Vectors.Sorted_ivec.iter
            (fun x ->
              terms.(!ni) <- x;
              incr ni)
            list)
        v)
    t;
  key_off.(h) <- e;
  list_off.(e) <- n;
  assert (!hi = h && !ei = e && !ni = n);
  let stream = Vectors.Sorted_ivec.stream_of_array in
  let fhdr_s = stream (Array.sub hdrs 0 h) in
  Flat
    {
      n_headers = h;
      fhdr_s;
      fheaders = Vectors.Sorted_ivec.slice fhdr_s ~off:0 ~len:h;
      fkey_off = stream key_off;
      fkeys = stream (Array.sub keys 0 e);
      flist_off = stream list_off;
      fterms = stream (Array.sub terms 0 n);
    }

let block_violations = function
  | Hashed _ -> []
  | Flat f ->
      List.concat_map
        (fun (name, s) ->
          List.map
            (fun e -> name ^ ": " ^ e)
            (Vectors.Sorted_ivec.stream_validate s))
        [
          ("headers", f.fhdr_s);
          ("key_off", f.fkey_off);
          ("keys", f.fkeys);
          ("list_off", f.flist_off);
          ("terms", f.fterms);
        ]

let check_invariant t =
  (match t with
  | Hashed h ->
      assert (h.pending = []);
      Vectors.Sorted_ivec.check_invariant h.sorted;
      assert (Vectors.Sorted_ivec.length h.sorted = Hashtbl.length h.headers);
      Vectors.Sorted_ivec.iter (fun hd -> assert (Hashtbl.mem h.headers hd)) h.sorted
  | Flat f ->
      Vectors.Sorted_ivec.check_invariant f.fheaders;
      assert (Vectors.Sorted_ivec.length f.fheaders = f.n_headers);
      assert (block_violations t = []));
  iter (fun _ v -> Pair_vector.check_invariant v) t
