(* An ordering is a flat CSR (compressed sparse row) layout: one sorted
   header stream, a row-pointer stream into one concatenated key
   stream, and, per second-level entry, a run of one terminal stream.
   The layout is flat because the store's memory and the GC's marking
   are dominated by the per-object overhead of hundreds of thousands of
   tiny lists and vectors, not by element widths: flattening removes
   the objects, and the packed codec then shrinks the payload.  Twin
   orderings share terminal runs as the paper's §4.1 lists do: the
   owner (spo, sop, pos) keeps the run offsets and the terminal stream,
   and its twin keeps, per entry, the owner's entry number.  All reads
   go through [Sorted_ivec] slices and [Pair_vector] views, or push
   straight from the columns; an index never changes once built, and a
   store writes by building new ones ({!refill}). *)

module Sv = Vectors.Sorted_ivec

type t = {
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

(* --- reads ---------------------------------------------------------------- *)

let get = Sv.stream_get

(* The owner entry whose terminal run the [k]-th entry reads: itself on
   an owner, the one it names on a twin. *)
let owner_entry f k = match f.twin with None -> k | Some tw -> get tw.entry k

let list_at f k =
  let e = owner_entry f k in
  let a = get f.list_off e in
  Sv.slice f.terms ~off:a ~len:(get f.list_off (e + 1) - a)

let header_total f r =
  match f.twin with
  | None -> get f.list_off (get f.key_off (r + 1)) - get f.list_off (get f.key_off r)
  | Some tw -> get tw.tot_off (r + 1) - get tw.tot_off r

(* The r-th header's pair vector, as a view over the streams. *)
let vector_at f r =
  let k0 = get f.key_off r and k1 = get f.key_off (r + 1) in
  Pair_vector.view
    ~keys:(Sv.slice f.keys ~off:k0 ~len:(k1 - k0))
    ~total:(header_total f r)
    ~payload:(fun j -> list_at f (k0 + j))

(* The rank of header [h], or -1. *)
let rank f h =
  match f.rank_of with
  | Some d -> if h >= 0 && h < Sv.stream_length d then get d h - 1 else -1
  | None ->
      let r = Sv.index_geq f.fheaders h in
      if r < f.n_headers && Sv.get f.fheaders r = h then r else -1

let find_vector f h =
  let r = rank f h in
  if r >= 0 then Some (vector_at f r) else None

(* The entry number of (first, second), or -1: offset reads around
   one binary search of the header's key run, nothing allocated. *)
let entry_of f first second =
  let r = rank f first in
  if r < 0 then -1
  else
    let k1 = get f.key_off (r + 1) in
    let k = Sv.stream_index_geq f.keys ~lo:(get f.key_off r) ~hi:k1 second in
    if k < k1 && get f.keys k = second then k else -1

let find_list f first second =
  let k = entry_of f first second in
  if k < 0 then None else Some (list_at f k)

(* The pushes read the columns, as {!iter_triples} does: no view,
   slice, option or closure per probe or per entry. *)
let iter_list f first second g =
  let k = entry_of f first second in
  if k < 0 then 0
  else begin
    let e = owner_entry f k in
    let a = get f.list_off e and b = get f.list_off (e + 1) in
    for i = a to b - 1 do
      g (get f.terms i)
    done;
    b - a
  end

let iter_header f h g =
  let r = rank f h in
  if r < 0 then 0
  else begin
    for k = get f.key_off r to get f.key_off (r + 1) - 1 do
      let second = get f.keys k in
      let e = owner_entry f k in
      for i = get f.list_off e to get f.list_off (e + 1) - 1 do
        g second (get f.terms i)
      done
    done;
    header_total f r
  end

let list_length f first second =
  let k = entry_of f first second in
  if k < 0 then 0
  else
    let e = owner_entry f k in
    get f.list_off (e + 1) - get f.list_off e

let header_triples f h =
  let r = rank f h in
  if r < 0 then 0 else header_total f r

let iter g f =
  for r = 0 to f.n_headers - 1 do
    g (Sv.get f.fheaders r) (vector_at f r)
  done

let iter_triples f g =
  for r = 0 to f.n_headers - 1 do
    let first = get f.hdr_s r in
    for k = get f.key_off r to get f.key_off (r + 1) - 1 do
      let second = get f.keys k in
      let e = owner_entry f k in
      for i = get f.list_off e to get f.list_off (e + 1) - 1 do
        g first second (get f.terms i)
      done
    done
  done

let headers f = Sv.copy f.fheaders

let headers_view f = f.fheaders

let total f = Sv.stream_length f.terms

(* --- the build ---------------------------------------------------------- *)

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
  let twin =
    lazy
      (let perm = Vectors.Radix.sort es (Array.init e Fun.id) in
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
       csr kind ~hdrs:thdrs ~key_off:tkey_off ~keys ~list_off ~terms ~twin:(Some twin))
  in
  (owner, twin)

let empty ?kind () = of_sorted_columns ?kind ~firsts:[||] ~seconds:[||] ~thirds:[||] ()

let refill o ord ~add ~remove =
  let at = function
    | Pattern.Subj -> fun (tr : Dict.Term_dict.id_triple) -> tr.s
    | Pattern.Pred -> fun tr -> tr.p
    | Pattern.Obj -> fun tr -> tr.o
  in
  let first, second, third =
    match Ordering.positions ord with [ a; b; c ] -> (at a, at b, at c) | _ -> assert false
  in
  let add = Ordering.resort ~from:Ordering.Spo ord add
  and remove = Ordering.resort ~from:Ordering.Spo ord remove in
  let na = Array.length add and nr = Array.length remove in
  let m = total o + na - nr in
  let a = Array.make m 0 and b = Array.make m 0 and c = Array.make m 0 in
  let w = ref 0 and j = ref 0 and k = ref 0 in
  let emit x y z =
    a.(!w) <- x;
    b.(!w) <- y;
    c.(!w) <- z;
    incr w
  in
  let emit_add () =
    let tr = add.(!j) in
    emit (first tr) (second tr) (third tr);
    incr j
  in
  iter_triples o (fun x y z ->
      let below tr =
        let r = Int.compare (first tr) x in
        if r <> 0 then r < 0
        else
          let r = Int.compare (second tr) y in
          if r <> 0 then r < 0 else third tr < z
      in
      while !j < na && below add.(!j) do
        emit_add ()
      done;
      let gone = !k < nr && (let tr = remove.(!k) in first tr = x && second tr = y && third tr = z) in
      if gone then incr k else emit x y z);
  while !j < na do
    emit_add ()
  done;
  if !w <> m || !k <> nr then invalid_arg "Index.refill: a batch triple is misplaced";
  of_sorted_columns ~kind:(Sv.kind_of o.fheaders) ~firsts:a ~seconds:b ~thirds:c ()

(* --- accounting and audits ------------------------------------------------ *)

(* Exact: the record, the header slice and the streams the index owns —
   a twin's run offsets and terminal stream are its owner's. *)
let memory_words f =
  let own =
    match f.twin with
    | None -> Sv.stream_memory_words f.list_off + Sv.stream_memory_words f.terms
    | Some tw ->
        2 (* Some *) + 3 (* twin record *) + Sv.stream_memory_words tw.entry
        + Sv.stream_memory_words tw.tot_off
  in
  let rank = match f.rank_of with None -> 0 | Some d -> 2 (* Some *) + Sv.stream_memory_words d in
  10 (* record *) + rank + Sv.memory_words f.fheaders + Sv.stream_memory_words f.hdr_s
  + Sv.stream_memory_words f.key_off + Sv.stream_memory_words f.keys + own

let map_streams g f =
  let kind = Sv.kind_of f.fheaders in
  let map name s = Sv.stream_of_array ~kind (g name (Array.init (Sv.stream_length s) (get s))) in
  let hdr_s = map "headers" f.hdr_s in
  let n_headers = Sv.stream_length hdr_s in
  let owned = Option.is_none f.twin in
  {
    n_headers;
    hdr_s;
    fheaders = Sv.slice hdr_s ~off:0 ~len:n_headers;
    rank_of = Option.map (map "rank_of") f.rank_of;
    key_off = map "key_off" f.key_off;
    keys = map "keys" f.keys;
    list_off = (if owned then map "list_off" f.list_off else f.list_off);
    terms = (if owned then map "terms" f.terms else f.terms);
    twin =
      Option.map (fun tw -> { entry = map "entry" tw.entry; tot_off = map "tot_off" tw.tot_off }) f.twin;
  }

let block_violations f =
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

let check_invariant f =
  Sv.check_invariant f.fheaders;
  assert (Sv.length f.fheaders = f.n_headers);
  assert (block_violations f = []);
  iter (fun _ v -> Pair_vector.check_invariant v) f
