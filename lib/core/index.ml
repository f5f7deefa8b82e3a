(* An ordering is a flat CSR (compressed sparse row) layout: one sorted
   header level, a row-pointer stream into one concatenated key
   stream, and, per second-level entry, a run of one terminal stream.
   The layout is flat because the store's memory and the GC's marking
   are dominated by the per-object overhead of hundreds of thousands of
   tiny lists and vectors, not by element widths: flattening removes
   the objects, and the packed codec then shrinks the payload.

   Sharing keeps each column once.  Twin orderings share terminal runs
   as the paper's §4.1 lists do: the owner (spo, sop, pos) keeps the
   terminal stream and its run offsets, and its twin keeps, per entry,
   where its run starts in the owner's stream and how long it is — read
   in the twin's own order, so a twin's header reads its runs' bounds
   from consecutive cells, not scattered over the owner's offsets.
   Sibling orderings (the two with the same
   first position: spo/sop, pso/pos, osp/ops) share one header level —
   the headers, their rank and their triple totals — one level up: the
   sibling built first owns it, the other adopts it.

   The payload (headers, keys, terms) is in the store's codec; the
   pointer columns (the offsets and a twin's run lengths) are narrow
   and always bit-packed, apart from the payload as in
   Perego et al.'s trie layouts.  Reads go by entry number (a header's
   rank, its entries' range, each entry's key and run) and push straight
   from the columns; an index never changes once built, and a store
   writes by building new ones ({!refill}). *)

module Sv = Vectors.Sorted_ivec

(* The header level, shared by sibling orderings. *)
type level = {
  n_headers : int;
  hdr_s : Sv.stream; (* h sorted header ids *)
  fheaders : Sv.t; (* whole-stream slice of hdr_s *)
  rank : int array;
      (* A Jacobson rank over the header ids, so a header lookup is one
         cell read: cell [i] holds the membership bits of ids
         [32i, 32i + 32) in its low 32 bits and the number of headers
         below [32i] above them.  Empty when the ids are too sparse to
         pay for it: a binary search of the headers instead. *)
  tot_off : Sv.stream; (* h+1 cumulative triple counts per header *)
}

type t = {
  level : level;
  owns_level : bool; (* false on the sibling that adopted [level] *)
  key_off : Sv.stream; (* h+1 offsets into keys *)
  keys : Sv.stream; (* E second-level keys, one sorted run per header *)
  list_off : Sv.stream;
      (* Where each entry's run starts in [terms]: on an owner E+1
         ascending offsets, run [k] ending where run [k+1] starts; on a
         twin E offsets into its owner's stream. *)
  lens : Sv.stream option; (* a twin's E run lengths; [None] on an owner *)
  terms : Sv.stream;
      (* The owner's N terminal ids, one sorted run per entry; a twin's
         is its owner's, physically. *)
}

(* --- reads ---------------------------------------------------------------- *)

(* Reads go by number: a header's rank, then its entries' range in the
   key stream, then each entry's run in the terminal stream.  Nothing
   is allocated per entry; a run is pushed with one stream iteration,
   and a slice is built only for a caller that asks for one. *)

let get = Sv.stream_get

(* The set bits of [x < 2^32]: OCaml has no popcount primitive, so a
   SWAR sum of bit pairs, nibbles and bytes. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) lsr 24) land 0xff

let rank f h =
  let lv = f.level in
  let cells = lv.rank in
  if Array.length cells > 0 then
    if h < 0 || h lsr 5 >= Array.length cells then -1
    else
      let c = Array.unsafe_get cells (h lsr 5) and b = h land 31 in
      if (c lsr b) land 1 = 0 then -1 else (c lsr 32) + popcount (c land ((1 lsl b) - 1))
  else
    let r = Sv.index_geq lv.fheaders h in
    if r < lv.n_headers && Sv.get lv.fheaders r = h then r else -1

let header_count f = f.level.n_headers

let entry_off f r = get f.key_off r

let key f k = get f.keys k

let next_geq f ~from ~hi x = Sv.stream_search_from f.keys ~from ~hi x

let entry f first second =
  let r = rank f first in
  if r < 0 then -1
  else
    let k1 = get f.key_off (r + 1) in
    let k = Sv.stream_index_geq f.keys ~lo:(get f.key_off r) ~hi:k1 second in
    if k < k1 && get f.keys k = second then k else -1

let key_slice f h =
  let r = rank f h in
  if r < 0 then Sv.slice f.keys ~off:0 ~len:0
  else
    let k0 = get f.key_off r in
    Sv.slice f.keys ~off:k0 ~len:(get f.key_off (r + 1) - k0)

(* Where run [k], which starts at [a], ends: an owner's runs tile
   [terms], so at the start of run [k + 1]; a twin reads its runs'
   lengths from [lens]. *)
let run_end f k a = match f.lens with None -> get f.list_off (k + 1) | Some l -> a + get l k

let run_length f k =
  let a = get f.list_off k in
  run_end f k a - a

let run f k =
  let a = get f.list_off k in
  Sv.slice f.terms ~off:a ~len:(run_end f k a - a)

let iter_run f k g =
  let a = get f.list_off k in
  Sv.stream_iter g f.terms ~lo:a ~hi:(run_end f k a)

let iter_entries f ~lo ~hi g =
  Sv.stream_push_runs g ~keys:f.keys ~starts:f.list_off ?lens:f.lens f.terms ~lo ~hi

(* One stream iteration over the run offsets (an owner's) or lengths (a
   twin's), not two offset reads per entry. *)
let iter_lengths f h g =
  let r = rank f h in
  if r >= 0 then begin
    let k0 = get f.key_off r and k1 = get f.key_off (r + 1) in
    let k = ref k0 in
    match f.lens with
    | None ->
        let a = ref (get f.list_off k0) in
        Sv.stream_iter
          (fun b ->
            g (get f.keys !k) (b - !a);
            a := b;
            incr k)
          f.list_off ~lo:(k0 + 1) ~hi:(k1 + 1)
    | Some l ->
        Sv.stream_iter
          (fun n ->
            g (get f.keys !k) n;
            incr k)
          l ~lo:k0 ~hi:k1
  end

let find_list f first second =
  let k = entry f first second in
  if k < 0 then None else Some (run f k)

let list_length f first second =
  let k = entry f first second in
  if k < 0 then 0 else run_length f k

let header_triples f h =
  let r = rank f h in
  if r < 0 then 0 else get f.level.tot_off (r + 1) - get f.level.tot_off r

let iter_header f h g =
  let r = rank f h in
  if r < 0 then 0 else iter_entries f ~lo:(get f.key_off r) ~hi:(get f.key_off (r + 1)) g

(* An owner's scan is one pass over its run offsets, moving to the next
   header as the entries pass its key offset. *)
let iter_triples f g =
  match f.lens with
  | None ->
      if f.level.n_headers > 0 then begin
        let r = ref 0 and k = ref 0 and a = ref 0 in
        let first = ref (get f.level.hdr_s 0) and next = ref (get f.key_off 1) in
        Sv.stream_iter
          (fun b ->
            while !k >= !next do
              incr r;
              first := get f.level.hdr_s !r;
              next := get f.key_off (!r + 1)
            done;
            let second = get f.keys !k in
            for i = !a to b - 1 do
              g !first second (get f.terms i)
            done;
            a := b;
            incr k)
          f.list_off ~lo:1 ~hi:(Sv.stream_length f.list_off)
      end
  | Some _ ->
      for r = 0 to f.level.n_headers - 1 do
        let first = get f.level.hdr_s r in
        ignore
          (iter_entries f ~lo:(get f.key_off r) ~hi:(get f.key_off (r + 1)) (fun second third ->
               g first second third))
      done

let headers f = Sv.copy f.level.fheaders

let headers_view f = f.level.fheaders

let total f = Sv.stream_length f.terms

let shares_level a b = a.level == b.level

(* --- the build ---------------------------------------------------------- *)

let packed a = Sv.stream_of_array ~kind:Sv.Packed a

(* The rank cells of ascending header ids [hdrs] over [e] entries: built
   when the bitmap costs at most a word per 8 entries (ids up to [4e])
   and its counts fit their 30 bits; otherwise none. *)
let rank_cells hdrs e =
  let h = Array.length hdrs in
  if h = 0 || hdrs.(0) < 0 || hdrs.(h - 1) > 4 * e || h >= 1 lsl 30 then [||]
  else begin
    let cells = Array.make ((hdrs.(h - 1) lsr 5) + 1) 0 in
    Array.iter (fun x -> cells.(x lsr 5) <- cells.(x lsr 5) lor (1 lsl (x land 31))) hdrs;
    let below = ref 0 in
    Array.iteri
      (fun i c ->
        cells.(i) <- c lor (!below lsl 32);
        below := !below + popcount c)
      cells;
    cells
  end

(* The ordering over entries sorted on (first, second): entry [k] has
   first element [firsts.(k)], second element [keys.(k)] and [cum.(k)]
   triples ahead of it ([cum] has one more cell, the total).  Its
   header level is built here, or adopted from the sibling [level]. *)
let build kind ?level ~firsts ~cum ~keys ~list_off ~lens ~terms () =
  let e = Array.length firsts in
  let h = ref 0 in
  for k = 0 to e - 1 do
    if k = 0 || firsts.(k) <> firsts.(k - 1) then incr h
  done;
  let h = !h in
  let hdrs = Array.make h 0 and key_off = Array.make (h + 1) e and tot_off = Array.make (h + 1) cum.(e) in
  let r = ref 0 in
  for k = 0 to e - 1 do
    let x = firsts.(k) in
    if k = 0 || x <> firsts.(k - 1) then begin
      hdrs.(!r) <- x;
      key_off.(!r) <- k;
      tot_off.(!r) <- cum.(k);
      incr r
    end
  done;
  let level, owns_level =
    match level with
    | Some sibling ->
        if sibling.level.n_headers <> h then invalid_arg "Index: a sibling's header level differs";
        (sibling.level, false)
    | None ->
        let hdr_s = Sv.stream_of_array ~kind hdrs in
        ( {
            n_headers = h;
            hdr_s;
            fheaders = Sv.slice hdr_s ~off:0 ~len:h;
            rank = rank_cells hdrs e;
            tot_off = packed tot_off;
          },
          true )
  in
  { level; owns_level; key_off = packed key_off; keys = Sv.stream_of_array ~kind keys; list_off; lens; terms }

let of_sorted_columns ?(kind = Sv.Raw) ?level ~firsts ~seconds ~thirds () =
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
  let owner =
    build kind ?level ~firsts:ef ~cum:starts ~keys:es ~list_off:(packed starts) ~lens:None
      ~terms:(Sv.stream_of_array ~kind thirds) ()
  in
  (* The entries are sorted on (first, second); a stable sort on second
     alone sorts them on (second, first), the twin's order, and carries
     each entry's run bounds along. *)
  let twin ?level () =
    let perm = Vectors.Radix.sort es (Array.init e Fun.id) in
    let firsts = Array.make e 0 and keys = Array.make e 0 and cum = Array.make (e + 1) 0 in
    let at = Array.make e 0 and lens = Array.make e 0 in
    for j = 0 to e - 1 do
      let k = perm.(j) in
      firsts.(j) <- es.(k);
      keys.(j) <- ef.(k);
      at.(j) <- starts.(k);
      lens.(j) <- starts.(k + 1) - starts.(k);
      cum.(j + 1) <- cum.(j) + lens.(j)
    done;
    build kind ?level ~firsts ~cum ~keys ~list_off:(packed at) ~lens:(Some (packed lens)) ~terms:owner.terms
      ()
  in
  (owner, twin)

let refill ?level o ord ~add ~remove =
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
  of_sorted_columns ~kind:(Sv.stream_kind o.terms) ?level ~firsts:a ~seconds:b ~thirds:c ()

(* --- accounting and audits ------------------------------------------------ *)

let array_words a = if Array.length a = 0 then 0 else Array.length a + 1

(* Exact: the record and the streams the index owns — a twin's terminal
   stream is its owner's, and a sibling's header level is counted by the
   one that owns it. *)
let memory_words f =
  let lv = f.level in
  let level =
    if not f.owns_level then 0
    else
      6 (* level record *) + Sv.memory_words lv.fheaders + Sv.stream_memory_words lv.hdr_s
      + array_words lv.rank + Sv.stream_memory_words lv.tot_off
  in
  let own =
    match f.lens with
    | None -> Sv.stream_memory_words f.terms
    | Some l -> 2 (* Some *) + Sv.stream_memory_words l
  in
  8 (* record *) + level + Sv.stream_memory_words f.key_off + Sv.stream_memory_words f.keys
  + Sv.stream_memory_words f.list_off + own

let map_streams g f =
  let map name s =
    Sv.stream_of_array ~kind:(Sv.stream_kind s) (g name (Array.init (Sv.stream_length s) (get s)))
  in
  let lv = f.level in
  let hdr_s = map "headers" lv.hdr_s in
  let n_headers = Sv.stream_length hdr_s in
  {
    level =
      {
        n_headers;
        hdr_s;
        fheaders = Sv.slice hdr_s ~off:0 ~len:n_headers;
        rank = g "rank" (Array.copy lv.rank);
        tot_off = map "tot_off" lv.tot_off;
      };
    owns_level = true;
    key_off = map "key_off" f.key_off;
    keys = map "keys" f.keys;
    list_off = map "list_off" f.list_off;
    lens = Option.map (map "lens") f.lens;
    terms = (if f.lens = None then map "terms" f.terms else f.terms);
  }

(* Each offset column runs from 0 to the length of what it indexes,
   ascending: strictly where every run is non-empty.  A twin's runs are
   non-empty windows of its owner's stream.  Once the columns are sound,
   each header is read by entry: its keys ascend, its runs ascend, and
   their lengths add up to its total. *)
let violations f =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let lv = f.level in
  let streams =
    [ ("headers", lv.hdr_s); ("tot_off", lv.tot_off); ("key_off", f.key_off); ("keys", f.keys) ]
    @ [ ("list_off", f.list_off); ("terms", f.terms) ]
    @ match f.lens with None -> [] | Some l -> [ ("lens", l) ]
  in
  List.iter (fun (name, s) -> List.iter (err "%s: %s" name) (Sv.stream_validate s)) streams;
  let offsets name s ~strict ~last =
    let n = Sv.stream_length s in
    if n = 0 || get s 0 <> 0 || get s (n - 1) <> last then
      err "%s: does not run from 0 to %d" name last;
    for i = 1 to n - 1 do
      let d = get s i - get s (i - 1) in
      if d < 0 || (strict && d = 0) then err "%s: cell %d steps by %d" name i d
    done
  in
  offsets "key_off" f.key_off ~strict:true ~last:(Sv.stream_length f.keys);
  offsets "tot_off" lv.tot_off ~strict:true ~last:(total f);
  let e = Sv.stream_length f.keys in
  (match f.lens with
  | None ->
      if Sv.stream_length f.list_off <> e + 1 then err "list_off: not one cell per entry plus one";
      offsets "list_off" f.list_off ~strict:true ~last:(total f)
  | Some l ->
      if Sv.stream_length l <> e || Sv.stream_length f.list_off <> e then
        err "list_off/lens: not one cell per entry";
      for k = 0 to min (Sv.stream_length l) (Sv.stream_length f.list_off) - 1 do
        let a = get f.list_off k and n = get l k in
        if a < 0 || n < 1 || a + n > total f then err "list_off/lens: run %d is [%d, %d + %d)" k a a n
      done);
  if Sv.stream_length f.key_off <> lv.n_headers + 1 || Sv.stream_length lv.tot_off <> lv.n_headers + 1
  then err "key_off/tot_off: not one cell per header plus one";
  if Array.length lv.rank > 0 then begin
    let below = ref 0 in
    Array.iteri
      (fun i c ->
        if c lsr 32 <> !below then err "rank: block %d counts %d headers below it, not %d" i (c lsr 32) !below;
        below := !below + popcount (c land 0xffffffff))
      lv.rank;
    if !below <> lv.n_headers then err "rank: %d bits set for %d headers" !below lv.n_headers;
    for r = 0 to lv.n_headers - 1 do
      let x = get lv.hdr_s r in
      if rank f x <> r then err "rank: header %d at %d ranks %d" x r (rank f x)
    done
  end;
  if !errs = [] then
    for r = 0 to lv.n_headers - 1 do
      let h = get lv.hdr_s r in
      if r > 0 && get lv.hdr_s (r - 1) >= h then err "headers: %d out of order at %d" h r;
      let k0 = get f.key_off r and k1 = get f.key_off (r + 1) and sum = ref 0 in
      for k = k0 to k1 - 1 do
        if k > k0 && get f.keys (k - 1) >= get f.keys k then
          err "header %d: key %d out of order at entry %d" h (get f.keys k) k;
        let a = get f.list_off k and n = run_length f k in
        for i = a + 1 to a + n - 1 do
          if get f.terms (i - 1) >= get f.terms i then
            err "header %d, key %d: run out of order at %d" h (get f.keys k) (i - a)
        done;
        sum := !sum + n
      done;
      let tot = get lv.tot_off (r + 1) - get lv.tot_off r in
      if tot <> !sum then err "header %d: total %d, its runs hold %d" h tot !sum
    done;
  List.rev !errs

let check_invariant f = assert (violations f = [])
