(* An ordering is either the mutable hash-of-pair-vectors form that
   point writes need, or a flat CSR (compressed sparse row) layout: one
   sorted header stream, a row-pointer stream into one concatenated key
   stream, and, per second-level entry, a run of one terminal stream.
   The flat form exists because the store's memory and the GC's marking
   are dominated by the per-object overhead of hundreds of thousands of
   tiny lists and vectors, not by element widths: flattening removes
   the objects, and the packed codec then shrinks the payload.  Twin
   orderings share terminal runs as the paper's §4.1 lists do: the
   owner (spo, sop, pos) keeps the run offsets and the terminal stream,
   and its twin keeps, per entry, the owner's entry number.  All reads
   go through [Sorted_ivec] slices and [Pair_vector] views, so the
   query layers never see the difference; mutation of a flat index
   raises, and the store swaps representations wholesale instead. *)

module Sv = Vectors.Sorted_ivec

(* A second-level entry a bulk pass could not place in order. *)
type link = { first : int; second : int; list : Sv.t }

type hashed = {
  headers : (int, Pair_vector.t) Hashtbl.t;
  sorted : Sv.t;
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
}

type flat = {
  n_headers : int;
  hdr_s : Sv.stream; (* h sorted header ids *)
  fheaders : Sv.t; (* whole-stream slice of hdr_s *)
  rank_of : Sv.stream option;
      (* Dense header ids: rank + 1 by id (0 for an id that is no
         header), so a header lookup is one cell read, not a binary
         search.  [None] when the ids are too sparse to pay for it. *)
  key_off : Sv.stream; (* h+1 offsets into keys *)
  keys : Sv.stream; (* E second-level keys, one sorted run per header *)
  list_off : Sv.stream; (* the owner's E+1 run offsets into terms *)
  terms : Sv.stream; (* the owner's N terminal ids, one sorted run per entry *)
  twin : twin option; (* [None] on an owner *)
}

(* A twin ordering's own columns: [list_off] and [terms] above are its
   owner's streams, physically. *)
and twin = {
  entry : Sv.stream; (* E owner entry numbers, one per entry *)
  tot_off : Sv.stream; (* h+1 cumulative triple counts per header *)
}

type t = Hashed of hashed | Flat of flat

let create ?(initial_headers = 64) () =
  Hashed { headers = Hashtbl.create initial_headers; sorted = Sv.create (); pending = []; links = [] }

let is_flat = function Flat _ -> true | Hashed _ -> false

let header_count = function Hashed h -> Hashtbl.length h.headers | Flat f -> f.n_headers

let frozen op = invalid_arg ("Index." ^ op ^ ": flat index is immutable")

(* --- flat reads --------------------------------------------------------- *)

let get = Sv.stream_get

(* The terminal run of the [k]-th entry: its own on an owner, the
   owner's entry it names on a twin. *)
let list_at f k =
  let e = match f.twin with None -> k | Some tw -> get tw.entry k in
  let a = get f.list_off e in
  Sv.slice f.terms ~off:a ~len:(get f.list_off (e + 1) - a)

let header_total f r =
  match f.twin with
  | None -> get f.list_off (get f.key_off (r + 1)) - get f.list_off (get f.key_off r)
  | Some tw -> get tw.tot_off (r + 1) - get tw.tot_off r

(* The r-th header's pair vector, as a view over the streams. *)
let flat_vector f r =
  let k0 = get f.key_off r and k1 = get f.key_off (r + 1) in
  Pair_vector.view
    ~keys:(Sv.slice f.keys ~off:k0 ~len:(k1 - k0))
    ~total:(header_total f r)
    ~payload:(fun j -> list_at f (k0 + j))

(* The rank of header [h], or -1. *)
let flat_rank f h =
  match f.rank_of with
  | Some d -> if h >= 0 && h < Sv.stream_length d then get d h - 1 else -1
  | None ->
      let r = Sv.index_geq f.fheaders h in
      if r < f.n_headers && Sv.get f.fheaders r = h then r else -1

let find_vector t h =
  match t with
  | Hashed t -> Hashtbl.find_opt t.headers h
  | Flat f ->
      let r = flat_rank f h in
      if r >= 0 then Some (flat_vector f r) else None

let find_list t first second =
  match t with
  | Hashed t -> (
      match Hashtbl.find_opt t.headers first with
      | None -> None
      | Some v -> Pair_vector.find v second)
  | Flat f -> (
      (* Straight to the terminal slice: offset reads around the key
         binary search, no intermediate view. *)
      let r = flat_rank f first in
      if r < 0 then None
      else
        let k0 = get f.key_off r and k1 = get f.key_off (r + 1) in
        let keys = Sv.slice f.keys ~off:k0 ~len:(k1 - k0) in
        let j = Sv.index_geq keys second in
        if j < k1 - k0 && Sv.get keys j = second then Some (list_at f (k0 + j)) else None)

(* --- the hashed form's writes ------------------------------------------- *)

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
          let n = Sv.length t.sorted in
          if defer && n > 0 && h < Sv.get t.sorted (n - 1) then t.pending <- h :: t.pending
          else ignore (Sv.add t.sorted h);
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
  let starts = run_starts (Array.length a) (fun i j -> a.(i).first = a.(j).first) in
  for r = 0 to Array.length starts - 2 do
    let lo = starts.(r) and hi = starts.(r + 1) in
    Pair_vector.merge_sorted (Hashtbl.find t.headers a.(lo).first)
      (Array.init (hi - lo) (fun j -> a.(lo + j).second))
      (Array.init (hi - lo) (fun j -> a.(lo + j).list))
  done

let seal = function
  | Flat _ -> ()
  | Hashed t -> (
      if t.links != [] then apply_links t;
      match t.pending with
      | [] -> ()
      | pending ->
          let a = Array.of_list pending in
          t.pending <- [];
          Array.stable_sort Int.compare a;
          Sv.merge_sorted t.sorted a)

let pending_headers = function Flat _ -> 0 | Hashed t -> List.length t.pending
let pending_links = function Flat _ -> 0 | Hashed t -> List.length t.links

let sealed op t = if t.pending != [] || t.links != [] then invalid_arg ("Index." ^ op ^ ": unsealed bulk pass")

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
      let v = create_vector ~defer:true index first in
      let n = Pair_vector.length v in
      let last = if n = 0 then min_int else Pair_vector.key_at v (n - 1) in
      (if second > last then ignore (Pair_vector.get_or_insert v second (fun () -> l))
       else if second < last && Option.is_none (Pair_vector.find v second) then
         match t.links with
         | { first = f; second = s'; _ } :: _ when f = first && s' = second -> ()
         | links -> t.links <- { first; second; list = l } :: links);
      Pair_vector.bump_total v 1

let list_or_new t first second =
  match find_list t first second with Some l -> l | None -> Sv.create ~capacity:2 ()

let add_third t ?twin ~first ~second third =
  let l = list_or_new t first second in
  Sv.add l third
  && begin
       link t ~first ~second l;
       Option.iter (fun tw -> link tw ~first:second ~second:first l) twin;
       true
     end

(* A run landing above every element of its list appends element by
   element; any other run is merged in with one pass over the list. *)
let link_runs t ?twin ~first ~second ~third a ~fresh =
  let link l x =
    let f = first x and s = second x in
    link_bulk t ~first:f ~second:s l;
    Option.iter (fun tw -> link_bulk tw ~first:s ~second:f l) twin;
    fresh x
  in
  let starts =
    run_starts (Array.length a) (fun i j -> first a.(i) = first a.(j) && second a.(i) = second a.(j))
  in
  for r = 0 to Array.length starts - 2 do
    let lo = starts.(r) and hi = starts.(r + 1) in
    let l = list_or_new t (first a.(lo)) (second a.(lo)) in
    if Sv.is_empty l || third a.(lo) > Sv.max_elt l then
      for i = lo to hi - 1 do
        if Sv.add l (third a.(i)) then link l a.(i)
      done
    else begin
      let added = ref [] in
      for i = hi - 1 downto lo do
        let x = third a.(i) in
        if (i = lo || third a.(i - 1) <> x) && not (Sv.mem l x) then added := a.(i) :: !added
      done;
      Sv.merge_sorted l (Array.of_list (List.map third !added));
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
        ignore (Sv.remove t.sorted h);
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

let remove_third t ?twin ~first ~second third =
  match find_list t first second with
  | Some l when Sv.remove l third ->
      let list_empty = Sv.is_empty l in
      unlink t ~first ~second ~list_empty;
      Option.iter (fun tw -> unlink tw ~first:second ~second:first ~list_empty) twin;
      true
  | _ -> false

(* --- the flat build ----------------------------------------------------- *)

(* The headers of [e] entries sorted on their first element [first k]:
   the distinct firsts in order, and the offset of each one's first
   entry followed by [e]. *)
let header_runs e first =
  let h = ref 0 in
  for k = 0 to e - 1 do
    if k = 0 || first k <> first (k - 1) then incr h
  done;
  let hdrs = Array.make !h 0 and key_off = Array.make (!h + 1) e in
  let r = ref 0 in
  for k = 0 to e - 1 do
    let x = first k in
    if k = 0 || x <> hdrs.(!r - 1) then begin
      hdrs.(!r) <- x;
      key_off.(!r) <- k;
      incr r
    end
  done;
  (hdrs, key_off)

let csr kind ~hdrs ~key_off ~keys ~list_off ~terms ~twin =
  let h = Array.length hdrs in
  let stream a = Sv.stream_of_array ~kind a in
  let hdr_s = stream hdrs in
  (* Dense when the id range is no longer than the key stream. *)
  let rank_of =
    if h = 0 || hdrs.(h - 1) >= Array.length keys then None
    else begin
      let d = Array.make (hdrs.(h - 1) + 1) 0 in
      Array.iteri (fun r x -> d.(x) <- r + 1) hdrs;
      Some (stream d)
    end
  in
  Flat
    {
      n_headers = h;
      hdr_s;
      fheaders = Sv.slice hdr_s ~off:0 ~len:h;
      rank_of;
      key_off = stream key_off;
      keys = stream keys;
      list_off;
      terms;
      twin;
    }

let of_sorted_columns ?(kind = Sv.Raw) ~firsts ~seconds ~thirds () =
  let n = Array.length thirds in
  if Array.length firsts <> n || Array.length seconds <> n then
    invalid_arg "Index.of_sorted_columns: columns differ in length";
  (* One pass checks the order and counts the (first, second) entries,
     a second one lays them out: each entry's run offset into [thirds],
     its first and its second element. *)
  let e = ref (min n 1) in
  for i = 1 to n - 1 do
    let f0 = firsts.(i - 1) and f1 = firsts.(i) in
    if f1 > f0 then incr e
    else if f1 < f0 then invalid_arg "Index.of_sorted_columns: not sorted and distinct"
    else begin
      let s0 = seconds.(i - 1) and s1 = seconds.(i) in
      if s1 > s0 then incr e
      else if s1 < s0 || thirds.(i) <= thirds.(i - 1) then
        invalid_arg "Index.of_sorted_columns: not sorted and distinct"
    end
  done;
  let e = !e in
  let starts = Array.make (e + 1) n and ef = Array.make e 0 and es = Array.make e 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || firsts.(i) <> firsts.(i - 1) || seconds.(i) <> seconds.(i - 1) then begin
      starts.(!k) <- i;
      ef.(!k) <- firsts.(i);
      es.(!k) <- seconds.(i);
      incr k
    end
  done;
  let list_off = Sv.stream_of_array ~kind starts and terms = Sv.stream_of_array ~kind thirds in
  let hdrs, key_off = header_runs e (fun k -> ef.(k)) in
  let owner = csr kind ~hdrs ~key_off ~keys:es ~list_off ~terms ~twin:None in
  (* The entries are sorted on (first, second); a stable sort on second
     alone sorts them on (second, first), the twin's order.  The sorted
     permutation is the twin's entry column. *)
  let perm = Vectors.Radix.sort es (Array.init e Fun.id) in
  let thdrs, tkey_off = header_runs e (fun j -> es.(perm.(j))) in
  let keys = Array.make e 0 and tot_off = Array.make (Array.length thdrs + 1) n in
  let cum = ref 0 and r = ref 0 in
  for j = 0 to e - 1 do
    let k = perm.(j) in
    keys.(j) <- ef.(k);
    if j = tkey_off.(!r) then begin
      tot_off.(!r) <- !cum;
      incr r
    end;
    cum := !cum + starts.(k + 1) - starts.(k)
  done;
  let twin =
    { entry = Sv.stream_of_array ~kind perm; tot_off = Sv.stream_of_array ~kind tot_off }
  in
  (owner, csr kind ~hdrs:thdrs ~key_off:tkey_off ~keys ~list_off ~terms ~twin:(Some twin))

(* --- whole-index reads ---------------------------------------------------- *)

let iter f t =
  match t with
  | Hashed t -> Hashtbl.iter f t.headers
  | Flat fl ->
      for r = 0 to fl.n_headers - 1 do
        f (Sv.get fl.fheaders r) (flat_vector fl r)
      done

let iter_sorted f t =
  match t with
  | Hashed t ->
      sealed "iter_sorted" t;
      Sv.iter (fun h -> f h (Hashtbl.find t.headers h)) t.sorted
  | Flat _ -> iter f t (* flat iteration is already in ascending header order *)

let iter_triples t f =
  match t with
  | Hashed _ ->
      iter_sorted
        (fun first v -> Pair_vector.iter (fun second l -> Sv.iter (fun x -> f first second x) l) v)
        t
  | Flat fl ->
      (* Column loops: no view, slice or closure per entry. *)
      for r = 0 to fl.n_headers - 1 do
        let first = get fl.hdr_s r in
        for k = get fl.key_off r to get fl.key_off (r + 1) - 1 do
          let second = get fl.keys k in
          let e = match fl.twin with None -> k | Some tw -> get tw.entry k in
          for i = get fl.list_off e to get fl.list_off (e + 1) - 1 do
            f first second (get fl.terms i)
          done
        done
      done

(* A hashed index over (first, second, list) entries sorted on (first,
   second): an exact-size pair vector per header. *)
let of_entries firsts seconds lists =
  let starts = run_starts (Array.length firsts) (fun i j -> firsts.(i) = firsts.(j)) in
  let h = Array.length starts - 1 in
  let headers = Hashtbl.create h in
  for r = 0 to h - 1 do
    let lo = starts.(r) and len = starts.(r + 1) - starts.(r) in
    Hashtbl.add headers firsts.(lo)
      (Pair_vector.of_sorted ~keys:(Sv.adopt_sorted (Array.sub seconds lo len)) ~payloads:(Array.sub lists lo len))
  done;
  Hashed
    {
      headers;
      sorted = Sv.adopt_sorted (Array.init h (fun r -> firsts.(starts.(r))));
      pending = [];
      links = [];
    }

(* A flat index's entries as a hashed index over [lists], one per entry. *)
let thaw_with fl lists =
  let e = Sv.stream_length fl.keys in
  let firsts = Array.make e 0 in
  for r = 0 to fl.n_headers - 1 do
    for k = get fl.key_off r to get fl.key_off (r + 1) - 1 do
      firsts.(k) <- get fl.hdr_s r
    done
  done;
  of_entries firsts (Array.init e (get fl.keys)) lists

(* One mutable list per owner entry, reached from both orderings. *)
let thaw ~owner ~twin =
  match (owner, twin) with
  | Flat o, Flat ({ twin = Some tw; _ } as t) ->
      let lists = Array.init (Sv.stream_length o.keys) (fun k -> Sv.copy (list_at o k)) in
      ( thaw_with o lists,
        thaw_with t (Array.init (Sv.stream_length tw.entry) (fun j -> lists.(get tw.entry j))) )
  | Flat _, Flat _ -> invalid_arg "Index.thaw: not a twin"
  | _ -> (owner, twin)

let headers t =
  match t with
  | Hashed t ->
      sealed "headers" t;
      Sv.copy t.sorted
  | Flat f -> Sv.copy f.fheaders

let headers_view = function
  | Hashed t ->
      sealed "headers_view" t;
      t.sorted
  | Flat f -> f.fheaders

let total = function
  | Hashed t -> Hashtbl.fold (fun _ v acc -> acc + Pair_vector.total v) t.headers 0
  | Flat f -> Sv.stream_length f.terms

(* Exact accounting.  Hashed: the table's own array + 4 words per
   entry (bucket cons: header, key, value, next) + each pair vector.
   Flat: the spine records, the header slice and the streams the index
   owns — a twin's run offsets and terminal stream are its owner's. *)
let memory_words = function
  | Hashed t ->
      let stats = Hashtbl.stats t.headers in
      Hashtbl.fold (fun _ v acc -> acc + 4 + Pair_vector.memory_words v) t.headers
        (stats.Hashtbl.num_buckets + 4)
      + Sv.memory_words t.sorted
  | Flat f ->
      let own =
        match f.twin with
        | None -> Sv.stream_memory_words f.list_off + Sv.stream_memory_words f.terms
        | Some tw ->
            2 (* Some *) + 3 (* twin record *) + Sv.stream_memory_words tw.entry
            + Sv.stream_memory_words tw.tot_off
      in
      let rank =
        match f.rank_of with None -> 0 | Some d -> 2 (* Some *) + Sv.stream_memory_words d
      in
      2 (* Flat box *) + 10 (* flat record *) + rank + Sv.memory_words f.fheaders
      + Sv.stream_memory_words f.hdr_s + Sv.stream_memory_words f.key_off
      + Sv.stream_memory_words f.keys + own

let terminal_memory_words = function
  | Flat _ -> 0
  | Hashed t ->
      Hashtbl.fold
        (fun _ v acc ->
          let words = ref acc in
          Pair_vector.iter (fun _ l -> words := !words + Sv.memory_words l) v;
          !words)
        t.headers 0

let map_streams f t =
  match t with
  | Hashed _ -> t
  | Flat fl ->
      let kind = Sv.kind_of fl.fheaders in
      let map name s =
        Sv.stream_of_array ~kind (f name (Array.init (Sv.stream_length s) (get s)))
      in
      let hdr_s = map "headers" fl.hdr_s in
      let n_headers = Sv.stream_length hdr_s in
      let owned = Option.is_none fl.twin in
      Flat
        {
          n_headers;
          hdr_s;
          fheaders = Sv.slice hdr_s ~off:0 ~len:n_headers;
          rank_of = Option.map (map "rank_of") fl.rank_of;
          key_off = map "key_off" fl.key_off;
          keys = map "keys" fl.keys;
          list_off = (if owned then map "list_off" fl.list_off else fl.list_off);
          terms = (if owned then map "terms" fl.terms else fl.terms);
          twin =
            Option.map
              (fun tw -> { entry = map "entry" tw.entry; tot_off = map "tot_off" tw.tot_off })
              fl.twin;
        }

let block_violations = function
  | Hashed _ -> []
  | Flat f ->
      let own =
        match f.twin with
        | None -> [ ("list_off", f.list_off); ("terms", f.terms) ]
        | Some tw -> [ ("entry", tw.entry); ("tot_off", tw.tot_off) ]
      in
      List.concat_map
        (fun (name, s) -> List.map (fun e -> name ^ ": " ^ e) (Sv.stream_validate s))
        ([ ("headers", f.hdr_s); ("key_off", f.key_off); ("keys", f.keys) ]
        @ Option.fold ~none:[] ~some:(fun d -> [ ("rank_of", d) ]) f.rank_of
        @ own)

let check_invariant t =
  (match t with
  | Hashed h ->
      assert (h.pending = [] && h.links = []);
      Sv.check_invariant h.sorted;
      assert (Sv.length h.sorted = Hashtbl.length h.headers);
      Sv.iter (fun hd -> assert (Hashtbl.mem h.headers hd)) h.sorted
  | Flat f ->
      Sv.check_invariant f.fheaders;
      assert (Sv.length f.fheaders = f.n_headers);
      assert (block_violations t = []));
  iter (fun _ v -> Pair_vector.check_invariant v) t
