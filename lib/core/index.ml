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

(* A second-level entry a bulk pass could not place in order. *)
type link = { first : int; second : int; list : Vectors.Sorted_ivec.t }

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
  mutable links : link list;
      (* Second-level keys a bulk pass linked below their vector's
         largest key, awaiting {!seal}'s one merge per vector. *)
  mutable drops : (int * int) list;
      (* (first, second) entries whose shared list a bulk removal
         emptied, awaiting {!seal}'s one compaction per vector. *)
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
    {
      headers = Hashtbl.create initial_headers;
      sorted = Vectors.Sorted_ivec.create ();
      pending = [];
      links = [];
      drops = [];
    }

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

(* The start of every maximal run of [0, n) whose neighbours satisfy
   [same (i - 1) i], followed by [n]. *)
let run_starts n same =
  let is_start i = i = 0 || not (same (i - 1) i) in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if is_start i then incr count
  done;
  let starts = Array.make (!count + 1) n in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if is_start i then begin
      starts.(!k) <- i;
      incr k
    end
  done;
  starts

(* Calls [f first lo hi] on each run [a.(lo..hi-1)] of one first
   element in [a], sorted by [first_of]. *)
let iter_groups first_of a f =
  let starts = run_starts (Array.length a) (fun i j -> first_of a.(i) = first_of a.(j)) in
  for r = 0 to Array.length starts - 2 do
    f (first_of a.(starts.(r))) starts.(r) starts.(r + 1)
  done

let compare_pairs (a, b) (c, d) =
  let r = Int.compare a c in
  if r <> 0 then r else Int.compare b d

(* One compaction per vector a removal pass emptied entries of, then
   one compaction of the header vector for the vectors it emptied. *)
let apply_drops t =
  let a = Array.of_list t.drops in
  t.drops <- [];
  Array.stable_sort compare_pairs a;
  let emptied = ref [] in
  iter_groups fst a (fun first lo hi ->
      let v = Hashtbl.find t.headers first in
      ignore (Pair_vector.remove_sorted v (Array.init (hi - lo) (fun j -> snd a.(lo + j))));
      if Pair_vector.length v = 0 then begin
        Hashtbl.remove t.headers first;
        emptied := first :: !emptied
      end);
  ignore (Vectors.Sorted_ivec.remove_sorted t.sorted (Array.of_list (List.rev !emptied)))

let compare_links x y =
  let r = Int.compare x.first y.first in
  if r <> 0 then r else Int.compare x.second y.second

(* One merge per vector that received out-of-order keys.  A key linked
   more than once in the pass carries the same shared list each time,
   so duplicates collapse to one entry. *)
let apply_links t =
  let a = Array.of_list t.links in
  t.links <- [];
  Array.stable_sort compare_links a;
  let a =
    Array.of_list (List.filteri (fun i l -> i = 0 || compare_links a.(i - 1) l <> 0) (Array.to_list a))
  in
  iter_groups (fun l -> l.first) a (fun first lo hi ->
      Pair_vector.merge_sorted (Hashtbl.find t.headers first)
        (Array.init (hi - lo) (fun j -> a.(lo + j).second))
        (Array.init (hi - lo) (fun j -> a.(lo + j).list)))

let seal = function
  | Flat _ -> ()
  | Hashed t -> (
      if t.drops != [] then apply_drops t;
      if t.links != [] then apply_links t;
      match t.pending with
      | [] -> ()
      | pending ->
          let a = Array.of_list pending in
          t.pending <- [];
          Array.stable_sort Int.compare a;
          Vectors.Sorted_ivec.merge_sorted t.sorted a)

let pending_headers = function Flat _ -> 0 | Hashed t -> List.length t.pending
let pending_links = function Flat _ -> 0 | Hashed t -> List.length t.links
let pending_drops = function Flat _ -> 0 | Hashed t -> List.length t.drops

let sealed op t =
  if t.pending != [] || t.links != [] || t.drops != [] then
    invalid_arg ("Index." ^ op ^ ": unsealed bulk pass")

let link index ~first ~second l =
  let v = create_vector ~defer:false index first in
  ignore (Pair_vector.get_or_insert v second (fun () -> l));
  Pair_vector.bump_total v 1

(* A key above the vector's largest is appended at once, as {!link}
   would; one below it that the vector lacks is recorded for {!seal},
   once per run of links to the same entry. *)
let link_bulk index ~first ~second l =
  match index with
  | Flat _ -> frozen "link_bulk"
  | Hashed t ->
      if t.drops != [] then invalid_arg "Index.link_bulk: unsealed removal pass";
      let v = create_vector ~defer:true index first in
      let n = Pair_vector.length v in
      let last = if n = 0 then min_int else Pair_vector.key_at v (n - 1) in
      (if second > last then ignore (Pair_vector.get_or_insert v second (fun () -> l))
       else if second < last && Option.is_none (Pair_vector.find v second) then
         match t.links with
         | { first = f; second = s'; _ } :: _ when f = first && s' = second -> ()
         | links -> t.links <- { first; second; list = l } :: links);
      Pair_vector.bump_total v 1

(* --- build from empty --------------------------------------------------- *)

(* A whole index from its (first, second, list) entries sorted on
   (first, second): one exact-size pair vector per header run, a header
   table sized for the headers and the sorted header vector.  Adopting
   the key runs checks them strictly increasing, and the header vector
   checks the headers. *)
let of_entries firsts seconds lists =
  let starts = run_starts (Array.length firsts) (fun i j -> firsts.(i) = firsts.(j)) in
  let h = Array.length starts - 1 in
  let headers = Hashtbl.create h in
  for r = 0 to h - 1 do
    let lo = starts.(r) and len = starts.(r + 1) - starts.(r) in
    Hashtbl.add headers firsts.(lo)
      (Pair_vector.of_sorted
         ~keys:(Vectors.Sorted_ivec.adopt_sorted (Array.sub seconds lo len))
         ~payloads:(Array.sub lists lo len))
  done;
  Hashed
    {
      headers;
      sorted = Vectors.Sorted_ivec.adopt_sorted (Array.init h (fun r -> firsts.(starts.(r))));
      pending = [];
      links = [];
      drops = [];
    }

let of_sorted_columns ~firsts ~seconds ~thirds =
  let n = Array.length thirds in
  if Array.length firsts <> n || Array.length seconds <> n then
    invalid_arg "Index.of_sorted_columns: columns differ in length";
  let starts =
    run_starts n (fun i j -> firsts.(i) = firsts.(j) && seconds.(i) = seconds.(j))
  in
  let e = Array.length starts - 1 in
  let ef = Array.init e (fun k -> firsts.(starts.(k))) in
  let es = Array.init e (fun k -> seconds.(starts.(k))) in
  let lists =
    Array.init e (fun k ->
        Vectors.Sorted_ivec.adopt_sorted (Array.sub thirds starts.(k) (starts.(k + 1) - starts.(k))))
  in
  (* The entries are sorted on (first, second); a stable sort on second
     alone sorts them on (second, first), the twin's order. *)
  let perm = Vectors.Radix.sort es (Array.init e Fun.id) in
  let gather a = Array.map (fun k -> a.(k)) perm in
  (of_entries ef es lists, of_entries (gather es) (gather ef) (gather lists))

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

let list_or_new t first second =
  match find_list t first second with
  | Some l -> l
  | None -> Vectors.Sorted_ivec.create ~capacity:2 ()

let add_third t ?twin ~first ~second third =
  let l = list_or_new t first second in
  Vectors.Sorted_ivec.add l third
  && begin
       link t ~first ~second l;
       Option.iter (fun tw -> link tw ~first:second ~second:first l) twin;
       true
     end

let pair_runs ~first ~second a =
  run_starts (Array.length a) (fun i j -> first a.(i) = first a.(j) && second a.(i) = second a.(j))

(* A run landing above every element of its list appends element by
   element; any other run is merged in with one pass over the list. *)
let link_runs t ?twin ~first ~second ~third a ~fresh =
  let link l x =
    let f = first x and s = second x in
    link_bulk t ~first:f ~second:s l;
    Option.iter (fun tw -> link_bulk tw ~first:s ~second:f l) twin;
    fresh x
  in
  let starts = pair_runs ~first ~second a in
  for r = 0 to Array.length starts - 2 do
    let lo = starts.(r) and hi = starts.(r + 1) in
    let l = list_or_new t (first a.(lo)) (second a.(lo)) in
    if Vectors.Sorted_ivec.is_empty l || third a.(lo) > Vectors.Sorted_ivec.max_elt l then
      for i = lo to hi - 1 do
        if Vectors.Sorted_ivec.add l (third a.(i)) then link l a.(i)
      done
    else begin
      let added = ref [] in
      for i = hi - 1 downto lo do
        let x = third a.(i) in
        if (i = lo || third a.(i - 1) <> x) && not (Vectors.Sorted_ivec.mem l x) then
          added := a.(i) :: !added
      done;
      Vectors.Sorted_ivec.merge_sorted l (Array.of_list (List.map third !added));
      List.iter (link l) !added
    end
  done

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

let unlink_bulk index ~first ~second ~removed ~list_empty =
  match index with
  | Flat _ -> frozen "unlink_bulk"
  | Hashed t -> (
      if t.pending != [] || t.links != [] then invalid_arg "Index.unlink_bulk: unsealed link pass";
      match Hashtbl.find_opt t.headers first with
      | None -> invalid_arg "Index.unlink_bulk: no such header"
      | Some v ->
          Pair_vector.bump_total v (-removed);
          if list_empty then t.drops <- (first, second) :: t.drops)

let remove_third t ?twin ~first ~second third =
  match find_list t first second with
  | Some l when Vectors.Sorted_ivec.remove l third ->
      let list_empty = Vectors.Sorted_ivec.is_empty l in
      unlink t ~first ~second ~list_empty;
      Option.iter (fun tw -> unlink tw ~first:second ~second:first ~list_empty) twin;
      true
  | _ -> false

let unlink_runs t ?twin ~first ~second ~third a ~gone =
  let starts = pair_runs ~first ~second a in
  for r = 0 to Array.length starts - 2 do
    let lo = starts.(r) and hi = starts.(r + 1) in
    let f = first a.(lo) and s = second a.(lo) in
    match find_list t f s with
    | None -> ()
    | Some l ->
        for i = lo to hi - 1 do
          let x = third a.(i) in
          if (i = lo || third a.(i - 1) <> x) && Vectors.Sorted_ivec.mem l x then gone a.(i)
        done;
        let removed =
          Vectors.Sorted_ivec.remove_sorted l (Array.init (hi - lo) (fun j -> third a.(lo + j)))
        in
        if removed > 0 then begin
          let list_empty = Vectors.Sorted_ivec.is_empty l in
          unlink_bulk t ~first:f ~second:s ~removed ~list_empty;
          Option.iter (fun tw -> unlink_bulk tw ~first:s ~second:f ~removed ~list_empty) twin
        end
  done

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

let terminal_memory_words = function
  | Flat _ -> 0
  | Hashed t ->
      Hashtbl.fold
        (fun _ v acc ->
          let words = ref acc in
          Pair_vector.iter (fun _ l -> words := !words + Vectors.Sorted_ivec.memory_words l) v;
          !words)
        t.headers 0

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
      assert (h.pending = [] && h.links = [] && h.drops = []);
      Vectors.Sorted_ivec.check_invariant h.sorted;
      assert (Vectors.Sorted_ivec.length h.sorted = Hashtbl.length h.headers);
      Vectors.Sorted_ivec.iter (fun hd -> assert (Hashtbl.mem h.headers hd)) h.sorted
  | Flat f ->
      Vectors.Sorted_ivec.check_invariant f.fheaders;
      assert (Vectors.Sorted_ivec.length f.fheaders = f.n_headers);
      assert (block_violations t = []));
  iter (fun _ v -> Pair_vector.check_invariant v) t
