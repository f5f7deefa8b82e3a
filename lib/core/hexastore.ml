open Vectors

type id_triple = Dict.Term_dict.id_triple = {
  s : int;
  p : int;
  o : int;
}

(* Telemetry: per-ordering probe/insert/delete counters, indexed in the
   order of {!Ordering.all}, plus a histogram of terminal scan sizes
   (list length or vector total enumerated by a lookup).  Every hook is
   a single flag read while telemetry is off. *)
let ord_index = function
  | Ordering.Spo -> 0
  | Ordering.Sop -> 1
  | Ordering.Pso -> 2
  | Ordering.Pos -> 3
  | Ordering.Osp -> 4
  | Ordering.Ops -> 5

let counter_family event =
  Array.of_list
    (List.map
       (fun o -> Telemetry.Metrics.counter ("hexastore." ^ event ^ "." ^ Ordering.name o))
       Ordering.all)

let m_probe = counter_family "probe"
let m_insert = counter_family "insert"
let m_delete = counter_family "delete"
let m_scan_len = Telemetry.Metrics.histogram "hexastore.scan.terminal_size"

let note_ord o = Telemetry.Metrics.incr m_probe.(ord_index o)
let note_probe shape = note_ord (Ordering.for_shape shape)

(* Every mutation touches all six orderings (§4.2's update cost), so the
   whole family advances together. *)
let note_mutation family n =
  if !Telemetry.Config.enabled then Array.iter (fun c -> Telemetry.Metrics.add c n) family

(* The structural fields are mutable so that bulk writes and
   representation switches rebuild a store in place while aliases
   (datasets, delta layers) keep pointing at the same [t].  The three
   shared terminal-list families are reached through the orderings that
   hold them: o-lists (s,p) through [spo] (and [pso]), p-lists (s,o)
   through [sop] (and [osp]), s-lists (p,o) through [pos] (and [ops]). *)
type t = {
  dict : Dict.Term_dict.t;
  mutable spo : Index.t;
  mutable sop : Index.t;
  mutable pso : Index.t;
  mutable pos : Index.t;
  mutable osp : Index.t;
  mutable ops : Index.t;
  mutable size : int;
  repr : Sorted_ivec.kind;
      (* The codec of the flat form's streams: [int array]s ([Raw]) or
         bit-packed ([Packed]).  Bulk writes build the flat form; point
         mutations [inflate] to the hashed form, whatever the codec. *)
}

let repr_of_env () =
  match Sys.getenv_opt "HEXASTORE_REPR" with
  | None | Some "" -> Sorted_ivec.Raw
  | Some s -> (
      match Sorted_ivec.kind_of_name s with
      | Some k -> k
      | None -> invalid_arg (Printf.sprintf "HEXASTORE_REPR: unknown representation %S" s))

let create ?dict ?repr () =
  let dict = match dict with Some d -> d | None -> Dict.Term_dict.create () in
  let repr = match repr with Some r -> r | None -> repr_of_env () in
  {
    dict;
    spo = Index.create ();
    sop = Index.create ();
    pso = Index.create ();
    pos = Index.create ();
    osp = Index.create ();
    ops = Index.create ();
    size = 0;
    repr;
  }

let dict t = t.dict

let is_flat t = Index.is_flat t.spo

let repr t = t.repr

let repr_name t = if is_flat t then Sorted_ivec.kind_name t.repr else "raw"

let size t = t.size
(* Handing out an index is counted as a probe of it: the benchmark
   query strategies read indices through these accessors, and the
   hexastore.probe.* counters are how EXPLAIN and the bench artifact
   attribute work to index families. *)
let spo t = note_ord Ordering.Spo; t.spo
let sop t = note_ord Ordering.Sop; t.sop
let pso t = note_ord Ordering.Pso; t.pso
let pos t = note_ord Ordering.Pos; t.pos
let osp t = note_ord Ordering.Osp; t.osp
let ops t = note_ord Ordering.Ops; t.ops

(* Debug-only hook (see {!Debug}): after a mutation, re-validate every
   vector and list it touched.  Gated on [Debug.enabled] so the cost is a
   single flag read in normal operation. *)
let debug_validate t { s; p; o } =
  Debug.note_validation ();
  let check_list index first second =
    Option.iter Sorted_ivec.check_invariant (Index.find_list index first second)
  in
  check_list t.spo s p;
  check_list t.sop s o;
  check_list t.pos p o;
  let check_vector index first =
    match Index.find_vector index first with
    | Some v -> Pair_vector.check_invariant v
    | None -> ()
  in
  check_vector t.spo s;
  check_vector t.sop s;
  check_vector t.pso p;
  check_vector t.pos p;
  check_vector t.osp o;
  check_vector t.ops o

let add_ids t { s; p; o } =
  Index.add_third t.spo ~twin:t.pso ~first:s ~second:p o
  && begin
       let added_p = Index.add_third t.sop ~twin:t.osp ~first:s ~second:o p in
       let added_s = Index.add_third t.pos ~twin:t.ops ~first:p ~second:o s in
       assert (added_p && added_s);
       t.size <- t.size + 1;
       note_mutation m_insert 1;
       if !Debug.enabled then debug_validate t { s; p; o };
       true
     end

let mem_ids t { s; p; o } =
  match Index.find_list t.spo s p with None -> false | Some l -> Sorted_ivec.mem l o

let remove_ids t { s; p; o } =
  Index.remove_third t.spo ~twin:t.pso ~first:s ~second:p o
  && begin
       let removed_p = Index.remove_third t.sop ~twin:t.osp ~first:s ~second:o p in
       let removed_s = Index.remove_third t.pos ~twin:t.ops ~first:p ~second:o s in
       assert (removed_p && removed_s);
       t.size <- t.size - 1;
       note_mutation m_delete 1;
       if !Debug.enabled then debug_validate t { s; p; o };
       true
     end

(* --- bulk builds ------------------------------------------------------ *)

(* The flat build: three distinct columns sorted on (s, p, o) become the
   six orderings, each list family one fill of its owner and twin
   ({!Index.of_sorted_columns}).  The (s, o, p) and (p, o, s) families
   are two stable counting-sort passes away from (s, p, o). *)
let fill_columns t ~s ~p ~o =
  let kind = t.repr and n = Array.length o in
  let family order firsts seconds thirds =
    let perm = List.fold_left (fun perm key -> Radix.sort key perm) (Array.init n Fun.id) order in
    let gather a = Array.map (fun i -> a.(i)) perm in
    Index.of_sorted_columns ~kind ~firsts:(gather firsts) ~seconds:(gather seconds)
      ~thirds:(gather thirds) ()
  in
  let sop, osp = family [ o; s ] s o p in
  let pos, ops = family [ o; p ] p o s in
  let spo, pso = Index.of_sorted_columns ~kind ~firsts:s ~seconds:p ~thirds:o () in
  t.spo <- spo;
  t.sop <- sop;
  t.pso <- pso;
  t.pos <- pos;
  t.osp <- osp;
  t.ops <- ops;
  t.size <- n

let of_sorted_columns ?dict ?repr ~s ~p ~o () =
  let t = create ?dict ?repr () in
  fill_columns t ~s ~p ~o;
  t

(* A batch sorted on (s, p, o), repeats dropped. *)
let sorted_distinct triples =
  let sorted = Ordering.sort_triples Spo triples in
  let n = ref 0 in
  Array.iter
    (fun tr ->
      if !n = 0 || Ordering.compare_triples Spo sorted.(!n - 1) tr <> 0 then begin
        sorted.(!n) <- tr;
        incr n
      end)
    sorted;
  Array.sub sorted 0 !n

let subj tr = tr.s
let pred tr = tr.p
let obj tr = tr.o

(* One list family's owner rebuilt: its (first, second, third) scan,
   with [add] (triples it lacks) merged in and [remove] (triples it
   holds) left out — both sorted on (s, p, o) — then one fill of the
   owner and its twin. *)
let refill t owner ord ~add ~remove =
  let first, second, third =
    match ord with
    | Ordering.Spo -> (subj, pred, obj)
    | Ordering.Sop -> (subj, obj, pred)
    | _ -> (pred, obj, subj)
  in
  let add = Ordering.resort ~from:Spo ord add and remove = Ordering.resort ~from:Spo ord remove in
  let na = Array.length add and nr = Array.length remove in
  let m = t.size + na - nr in
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
  Index.iter_triples owner (fun x y z ->
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
  assert (!w = m && !k = nr);
  Index.of_sorted_columns ~kind:t.repr ~firsts:a ~seconds:b ~thirds:c ()

(* The flat store (t \ remove) ∪ add, for [add] absent from [t] and
   [remove] present, both sorted on (s, p, o): each list family is one
   merge of its owner's scan with the batches and one fill. *)
let rebuild t ~add ~remove =
  if t.size = 0 then
    (* From empty, the counting sorts run on columns, not on records. *)
    fill_columns t ~s:(Array.map subj add) ~p:(Array.map pred add) ~o:(Array.map obj add)
  else begin
    let spo, pso = refill t t.spo Spo ~add ~remove in
    let sop, osp = refill t t.sop Sop ~add ~remove in
    let pos, ops = refill t t.pos Pos ~add ~remove in
    t.spo <- spo;
    t.sop <- sop;
    t.pso <- pso;
    t.pos <- pos;
    t.osp <- osp;
    t.ops <- ops;
    t.size <- t.size + Array.length add - Array.length remove
  end

(* The batches' effect is decided up front by membership: a triple of
   [remove] in the store leaves it (unless [add] has it too, then it
   counts as removed and added back), a triple of [add] not in the
   store joins it.  Nothing is rebuilt when nothing changes in a flat
   store. *)
let apply_bulk_ids t ~add ~remove =
  if Array.length add = 0 && Array.length remove = 0 then (0, 0)
  else begin
    let add = sorted_distinct add and remove = sorted_distinct remove in
    let in_add tr =
      let lo = ref 0 and hi = ref (Array.length add) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Ordering.compare_triples Spo add.(mid) tr < 0 then lo := mid + 1 else hi := mid
      done;
      !lo < Array.length add && Ordering.compare_triples Spo add.(!lo) tr = 0
    in
    let present = List.filter (mem_ids t) (Array.to_list remove) in
    let readded, gone = List.partition in_add present in
    let fresh = Array.of_list (List.filter (fun tr -> not (mem_ids t tr)) (Array.to_list add)) in
    if Array.length fresh > 0 || gone <> [] || not (is_flat t) then
      rebuild t ~add:fresh ~remove:(Array.of_list gone);
    let added = Array.length fresh + List.length readded and removed = List.length present in
    note_mutation m_insert added;
    note_mutation m_delete removed;
    (added, removed)
  end

let add_bulk_ids t triples = fst (apply_bulk_ids t ~add:triples ~remove:[||])

let remove_bulk_ids t triples = snd (apply_bulk_ids t ~add:[||] ~remove:triples)

(* --- lookup ---------------------------------------------------------- *)

let seq_of_list_opt = function None -> Seq.empty | Some l -> Sorted_ivec.to_seq l

(* Expand one header's pair vector into triples, [build second third]. *)
let seq_of_vector build v =
  Seq.concat_map
    (fun (second, l) -> Seq.map (fun third -> build second third) (Sorted_ivec.to_seq l))
    (Pair_vector.to_seq v)

let seq_of_header index build h =
  match Index.find_vector index h with
  | None -> Seq.empty
  | Some v -> seq_of_vector build v

let full_scan t =
  Seq.concat_map
    (fun s -> seq_of_header t.spo (fun p o -> { s; p; o }) s)
    (Sorted_ivec.to_seq (Index.headers t.spo))

let scan_list_opt l =
  (match l with
  | Some l -> Telemetry.Metrics.observe m_scan_len (Sorted_ivec.length l)
  | None -> ());
  seq_of_list_opt l

let scan_header index build h =
  (match Index.find_vector index h with
  | Some v -> Telemetry.Metrics.observe m_scan_len (Pair_vector.total v)
  | None -> ());
  seq_of_header index build h

let lookup t (pat : Pattern.t) =
  let shape = Pattern.shape pat in
  note_probe shape;
  match shape with
  | Pattern.All ->
      let tr = { s = Option.get pat.s; p = Option.get pat.p; o = Option.get pat.o } in
      if mem_ids t tr then Seq.return tr else Seq.empty
  | Pattern.Sp ->
      let s = Option.get pat.s and p = Option.get pat.p in
      Seq.map (fun o -> { s; p; o }) (scan_list_opt (Index.find_list t.spo s p))
  | Pattern.So ->
      let s = Option.get pat.s and o = Option.get pat.o in
      Seq.map (fun p -> { s; p; o }) (scan_list_opt (Index.find_list t.sop s o))
  | Pattern.Po ->
      let p = Option.get pat.p and o = Option.get pat.o in
      Seq.map (fun s -> { s; p; o }) (scan_list_opt (Index.find_list t.pos p o))
  | Pattern.S ->
      let s = Option.get pat.s in
      scan_header t.spo (fun p o -> { s; p; o }) s
  | Pattern.P ->
      let p = Option.get pat.p in
      scan_header t.pso (fun s o -> { s; p; o }) p
  | Pattern.O ->
      let o = Option.get pat.o in
      scan_header t.osp (fun s p -> { s; p; o }) o
  | Pattern.None_bound -> full_scan t

(* [lookup] pushed instead of pulled: the same orderings in the same
   order, with no sequence cells and no triple records. *)
let iter t (pat : Pattern.t) f =
  let shape = Pattern.shape pat in
  note_probe shape;
  (* A scan observes its length only when it found something, as
     [lookup] does. *)
  let scanned n = if n > 0 then Telemetry.Metrics.observe m_scan_len n in
  match (shape, pat.s, pat.p, pat.o) with
  | Pattern.All, Some s, Some p, Some o -> if mem_ids t { s; p; o } then f s p o
  | Pattern.Sp, Some s, Some p, _ -> scanned (Index.iter_list t.spo s p (fun o -> f s p o))
  | Pattern.So, Some s, _, Some o -> scanned (Index.iter_list t.sop s o (fun p -> f s p o))
  | Pattern.Po, _, Some p, Some o -> scanned (Index.iter_list t.pos p o (fun s -> f s p o))
  | Pattern.S, Some s, _, _ -> scanned (Index.iter_header t.spo s (fun p o -> f s p o))
  | Pattern.P, _, Some p, _ -> scanned (Index.iter_header t.pso p (fun s o -> f s p o))
  | Pattern.O, _, _, Some o -> scanned (Index.iter_header t.osp o (fun s p -> f s p o))
  | _ -> Index.iter_triples t.spo f

let count t (pat : Pattern.t) =
  let shape = Pattern.shape pat in
  note_probe shape;
  match shape with
  | Pattern.All ->
      if mem_ids t { s = Option.get pat.s; p = Option.get pat.p; o = Option.get pat.o } then 1
      else 0
  | Pattern.Sp -> Index.list_length t.spo (Option.get pat.s) (Option.get pat.p)
  | Pattern.So -> Index.list_length t.sop (Option.get pat.s) (Option.get pat.o)
  | Pattern.Po -> Index.list_length t.pos (Option.get pat.p) (Option.get pat.o)
  | Pattern.S -> Index.header_triples t.spo (Option.get pat.s)
  | Pattern.P -> Index.header_triples t.pso (Option.get pat.p)
  | Pattern.O -> Index.header_triples t.osp (Option.get pat.o)
  | Pattern.None_bound -> t.size

let fold f t acc =
  let acc = ref acc in
  Index.iter_triples t.spo (fun s p o -> acc := f { s; p; o } !acc);
  !acc

(* --- sorted merge scans ---------------------------------------------- *)

let index_of t = function
  | Ordering.Spo -> t.spo
  | Ordering.Sop -> t.sop
  | Ordering.Pso -> t.pso
  | Ordering.Pos -> t.pos
  | Ordering.Osp -> t.osp
  | Ordering.Ops -> t.ops

(* Triple from an ordering's (first, second, third) priority values. *)
let builder = function
  | Ordering.Spo -> fun a b c -> { s = a; p = b; o = c }
  | Ordering.Sop -> fun a b c -> { s = a; p = c; o = b }
  | Ordering.Pso -> fun a b c -> { s = b; p = a; o = c }
  | Ordering.Pos -> fun a b c -> { s = c; p = a; o = b }
  | Ordering.Osp -> fun a b c -> { s = b; p = c; o = a }
  | Ordering.Ops -> fun a b c -> { s = c; p = b; o = a }

(* The ordering that lists [pat]'s bound positions first (in some
   order), then [pos], then only free positions — i.e. the ordering
   under which [pat]'s matches stream sorted on the value at [pos].
   Because all 3! orderings exist, some ordering always qualifies for a
   constants-only pattern with [pos] free. *)
let serving_ordering (pat : Pattern.t) (pos : Pattern.position) =
  let bound q = Pattern.value_at pat q <> None in
  if bound pos then None
  else
    List.find_opt
      (fun ord ->
        let rec check = function
          | [] -> false
          | q :: rest -> if q = pos then List.for_all (fun r -> not (bound r)) rest else bound q && check rest
        in
        check (Ordering.positions ord))
      Ordering.all

(* A seek function over a sorted terminal list: [seek k] streams the
   suffix of elements [>= k].  The cursor resumes from the last hit
   (galloping), resetting defensively when a re-traversed sequence seeks
   backwards. *)
let seek_list l of_elt =
  let n = Sorted_ivec.length l in
  let last_k = ref min_int and last_i = ref 0 in
  fun k ->
    let from = if k < !last_k then 0 else !last_i in
    let i = Sorted_ivec.search_from l ~from k in
    last_k := k;
    last_i := i;
    let rec aux i () =
      if i >= n then Seq.Nil else Seq.Cons (of_elt (Sorted_ivec.get l i), aux (i + 1))
    in
    aux i

let scan_sorted t (pat : Pattern.t) (pos : Pattern.position) =
  match serving_ordering pat pos with
  | None -> None
  | Some ord ->
      note_ord ord;
      let index = index_of t ord in
      let build = builder ord in
      let value q = Pattern.value_at pat q in
      let seek =
        match List.map value (Ordering.positions ord) with
        | [ Some first; Some second; None ] -> (
            (* Both prefix levels bound: the matches are one shared
               terminal list, keyed directly by the scan position. *)
            match Index.find_list index first second with
            | None -> fun _ -> Seq.empty
            | Some l ->
                Telemetry.Metrics.observe m_scan_len (Sorted_ivec.length l);
                seek_list l (fun third -> build first second third))
        | [ Some first; None; None ] -> (
            (* One bound level: seek over the header's pair vector keys,
               expanding each payload list lazily. *)
            match Index.find_vector index first with
            | None -> fun _ -> Seq.empty
            | Some v ->
                Telemetry.Metrics.observe m_scan_len (Pair_vector.total v);
                let n = Pair_vector.length v in
                let last_k = ref min_int and last_i = ref 0 in
                fun k ->
                  let from = if k < !last_k then 0 else !last_i in
                  let i = Pair_vector.search_from v ~from k in
                  last_k := k;
                  last_i := i;
                  let rec aux i () =
                    if i >= n then Seq.Nil
                    else
                      let second = Pair_vector.key_at v i in
                      let l = Pair_vector.payload_at v i in
                      Seq.append
                        (Seq.map (fun third -> build first second third) (Sorted_ivec.to_seq l))
                        (aux (i + 1))
                        ()
                  in
                  aux i)
        | [ None; None; None ] ->
            (* Fully free: seek over the maintained sorted header vector,
               expanding each header's whole subtree lazily. *)
            let hs = Index.headers_view index in
            let expand first =
              match Index.find_vector index first with
              | None -> Seq.empty
              | Some v ->
                  Seq.concat_map
                    (fun (second, l) ->
                      Seq.map (fun third -> build first second third) (Sorted_ivec.to_seq l))
                    (Pair_vector.to_seq v)
            in
            let seek_headers = seek_list hs (fun h -> h) in
            fun k -> Seq.concat_map expand (seek_headers k)
        | _ ->
            (* serving_ordering guarantees bound-prefix shapes only. *)
            assert false
      in
      Some (ord, seek)

(* A galloping cursor over ascending probes: resumes from the last hit,
   restarting when a probe goes backwards. *)
let cursor search =
  let last_k = ref min_int and last_i = ref 0 in
  fun k ->
    let from = if k < !last_k then 0 else !last_i in
    let i = search ~from k in
    last_k := k;
    last_i := i;
    i

let seek_sorted t (pat : Pattern.t) (pos : Pattern.position) =
  match serving_ordering pat pos with
  | None -> None
  | Some ord ->
      note_ord ord;
      let index = index_of t ord in
      let emit = Ordering.emit ord in
      let value q = Pattern.value_at pat q in
      let run =
        match List.map value (Ordering.positions ord) with
        | [ Some first; Some second; None ] -> (
            match Index.find_list index first second with
            | None -> fun _ _ -> ()
            | Some l ->
                Telemetry.Metrics.observe m_scan_len (Sorted_ivec.length l);
                let n = Sorted_ivec.length l and seek = cursor (Sorted_ivec.search_from l) in
                fun k f ->
                  let i = seek k in
                  if i < n && Sorted_ivec.get l i = k then emit f first second k)
        | [ Some first; None; None ] -> (
            match Index.find_vector index first with
            | None -> fun _ _ -> ()
            | Some v ->
                Telemetry.Metrics.observe m_scan_len (Pair_vector.total v);
                let n = Pair_vector.length v and seek = cursor (Pair_vector.search_from v) in
                fun k f ->
                  let i = seek k in
                  if i < n && Pair_vector.key_at v i = k then
                    Sorted_ivec.iter (fun third -> emit f first k third) (Pair_vector.payload_at v i))
        | [ None; None; None ] -> (
            fun k f ->
              match Index.find_vector index k with
              | None -> ()
              | Some v ->
                  Pair_vector.iter
                    (fun second l -> Sorted_ivec.iter (fun third -> emit f k second third) l)
                    v)
        | _ ->
            (* serving_ordering guarantees bound-prefix shapes only. *)
            assert false
      in
      Some (ord, run)

(* --- range-splittable cursors ----------------------------------------- *)

(* Interior boundary keys that carve [pat]'s sorted scan on [pos] into
   [parts] contiguous key ranges.  Boundaries are taken at quantile
   indices of the serving structure (terminal-list elements, pair-vector
   keys or headers), so parts are balanced by structural size, not exact
   triple count — a skewed payload can unbalance the one-bound shape,
   which costs speedup, never correctness.  The result is non-decreasing
   with at most [parts - 1] entries; duplicate or degenerate boundaries
   simply yield empty ranges downstream. *)
let scan_bounds t (pat : Pattern.t) (pos : Pattern.position) ~parts =
  match serving_ordering pat pos with
  | None -> [||]
  | Some ord ->
      let index = index_of t ord in
      let value q = Pattern.value_at pat q in
      let boundaries n get =
        if parts <= 1 || n = 0 then [||]
        else Array.init (parts - 1) (fun j -> get ((j + 1) * n / parts))
      in
      (match List.map value (Ordering.positions ord) with
      | [ Some first; Some second; None ] -> (
          match Index.find_list index first second with
          | None -> [||]
          | Some l -> boundaries (Sorted_ivec.length l) (Sorted_ivec.get l))
      | [ Some first; None; None ] -> (
          match Index.find_vector index first with
          | None -> [||]
          | Some v -> boundaries (Pair_vector.length v) (Pair_vector.key_at v))
      | [ None; None; None ] ->
          let hs = Index.headers_view index in
          boundaries (Sorted_ivec.length hs) (Sorted_ivec.get hs)
      | _ ->
          (* serving_ordering guarantees bound-prefix shapes only. *)
          assert false)

(* Carve a seek cursor into contiguous per-range sequences at the given
   interior boundaries: range 0 holds keys below [bounds.(0)], range i
   the keys in [bounds.(i-1), bounds.(i)), the last range everything
   from the final boundary up.  All seeks run eagerly here, in ascending
   order (reusing the cursor's gallop state); the returned sequences
   share no mutable state afterwards, so distinct ranges are safe to
   force from distinct domains.  Concatenating the ranges in order
   reproduces the unsplit [seek min_int] stream exactly. *)
let split_cursor (pos : Pattern.position) bounds seek =
  let value_of (tr : id_triple) =
    match pos with Pattern.Subj -> tr.s | Pattern.Pred -> tr.p | Pattern.Obj -> tr.o
  in
  let k = Array.length bounds in
  let parts = Array.make (k + 1) Seq.empty in
  for i = 0 to k do
    let s = if i = 0 then seek min_int else seek bounds.(i - 1) in
    parts.(i) <- (if i = k then s else Seq.take_while (fun tr -> value_of tr < bounds.(i)) s)
  done;
  parts

let scan_split t pat pos ~parts =
  match scan_sorted t pat pos with
  | None -> None
  | Some (ord, seek) -> Some (ord, split_cursor pos (scan_bounds t pat pos ~parts) seek)

(* --- direct accessors ------------------------------------------------ *)

let probe_lists ord r =
  note_ord ord;
  (match r with
  | Some l when !Telemetry.Config.enabled ->
      Telemetry.Metrics.observe m_scan_len (Sorted_ivec.length l)
  | _ -> ());
  r

(* The paper-notation accessors ask the ordering that owns each list
   family, on raw and flat stores alike. *)
let objects_of_sp t ~s ~p = probe_lists Ordering.Spo (Index.find_list t.spo s p)
let properties_of_so t ~s ~o = probe_lists Ordering.Sop (Index.find_list t.sop s o)
let subjects_of_po t ~p ~o = probe_lists Ordering.Pos (Index.find_list t.pos p o)

let subjects t = Index.headers t.spo
let properties t = Index.headers t.pso
let objects t = Index.headers t.osp

(* --- accounting ------------------------------------------------------- *)

(* Each terminal list counted once, through the one ordering of its
   family that reaches it; on flat stores the terminal payloads are
   counted inside the indices' streams instead. *)
let memory_words t =
  Index.memory_words t.spo + Index.memory_words t.sop + Index.memory_words t.pso
  + Index.memory_words t.pos + Index.memory_words t.osp + Index.memory_words t.ops
  + Index.terminal_memory_words t.spo + Index.terminal_memory_words t.sop
  + Index.terminal_memory_words t.pos

let memory_words_with_dict t = memory_words t + Dict.Term_dict.memory_words t.dict

(* --- representation switching ----------------------------------------- *)

(* A hashed store (point-written) back to the flat form, refilled from
   its own scan. *)
let compress t =
  if not (is_flat t) then begin
    let before = memory_words t in
    rebuild t ~add:[||] ~remove:[||];
    Sorted_ivec.note_bytes_saved ((before - memory_words t) * 8)
  end

(* The hashed form from the flat one — the point-write path's escape
   hatch: each twin pair thaws around one mutable list per entry. *)
let inflate t =
  if is_flat t then begin
    let spo, pso = Index.thaw ~owner:t.spo ~twin:t.pso in
    let sop, osp = Index.thaw ~owner:t.sop ~twin:t.osp in
    let pos, ops = Index.thaw ~owner:t.pos ~twin:t.ops in
    t.spo <- spo;
    t.sop <- sop;
    t.pso <- pso;
    t.pos <- pos;
    t.osp <- osp;
    t.ops <- ops
  end

(* Point mutations on a flat store inflate it first and leave it hashed
   (refilling per triple would be O(n)); bulk writes rebuild it flat. *)
let add_ids t tr =
  if is_flat t then inflate t;
  add_ids t tr

let remove_ids t tr =
  if is_flat t then inflate t;
  remove_ids t tr

(* --- term-level API --------------------------------------------------- *)

let add t triple = add_ids t (Dict.Term_dict.encode_triple t.dict triple)

let add_list t triples =
  List.fold_left (fun n triple -> if add t triple then n + 1 else n) 0 triples

let of_triples triples =
  let t = create () in
  let ids = Array.of_list (List.map (Dict.Term_dict.encode_triple t.dict) triples) in
  ignore (add_bulk_ids t ids);
  t

let remove t triple =
  match Dict.Term_dict.find_triple t.dict triple with
  | None -> false
  | Some ids -> remove_ids t ids

let mem t triple =
  match Dict.Term_dict.find_triple t.dict triple with
  | None -> false
  | Some ids -> mem_ids t ids

let pattern_of_terms t ?s ?p ?o () =
  let find = Dict.Term_dict.find_term t.dict in
  let resolve = function
    | None -> Some None  (* wildcard *)
    | Some term -> ( match find term with None -> None | Some id -> Some (Some id))
  in
  match (resolve s, resolve p, resolve o) with
  | Some s, Some p, Some o -> Some { Pattern.s; p; o }
  | _ -> None  (* some term is unknown: nothing can match *)

let find t ?s ?p ?o () =
  match pattern_of_terms t ?s ?p ?o () with
  | None -> Seq.empty
  | Some pat -> Seq.map (Dict.Term_dict.decode_triple t.dict) (lookup t pat)

let count_terms t ?s ?p ?o () =
  match pattern_of_terms t ?s ?p ?o () with None -> 0 | Some pat -> count t pat

let to_triples t =
  List.of_seq (Seq.map (Dict.Term_dict.decode_triple t.dict) (full_scan t))

(* --- invariants ------------------------------------------------------- *)

let check_invariant t =
  (* Twin orderings share terminal lists physically: one mutable list
     on a hashed store, one window of the owner's stream on a flat one
     (which hands out a fresh slice header per lookup). *)
  let same_list = Sorted_ivec.shares in
  Index.check_invariant t.spo;
  Index.check_invariant t.sop;
  Index.check_invariant t.pso;
  Index.check_invariant t.pos;
  Index.check_invariant t.osp;
  Index.check_invariant t.ops;
  (* The six indices must agree on the triple set and on its size. *)
  assert (Index.total t.spo = t.size);
  assert (Index.total t.sop = t.size);
  assert (Index.total t.pso = t.size);
  assert (Index.total t.pos = t.size);
  assert (Index.total t.osp = t.size);
  assert (Index.total t.ops = t.size);
  (* Terminal lists must be physically shared between twin orderings. *)
  Index.iter
    (fun s v ->
      Pair_vector.iter
        (fun p l ->
          (match Index.find_list t.pso p s with
          | Some l' -> assert (same_list l l')
          | None -> assert false);
          Sorted_ivec.iter
            (fun o ->
              (* Every spo triple is visible through sop/osp and pos/ops. *)
              (match Index.find_list t.sop s o with
              | Some pl ->
                  assert (Sorted_ivec.mem pl p);
                  (match Index.find_list t.osp o s with
                  | Some pl' -> assert (same_list pl pl')
                  | None -> assert false)
              | None -> assert false);
              match Index.find_list t.pos p o with
              | Some sl ->
                  assert (Sorted_ivec.mem sl s);
                  (match Index.find_list t.ops o p with
                  | Some sl' -> assert (same_list sl sl')
                  | None -> assert false)
              | None -> assert false)
            l)
        v)
    t.spo
