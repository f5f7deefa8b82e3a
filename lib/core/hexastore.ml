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

(* The structural fields are mutable solely so {!replace_contents} can
   rebuild a store in place while aliases (datasets, delta layers) keep
   pointing at the same [t]. *)
type t = {
  dict : Dict.Term_dict.t;
  mutable spo : Index.t;
  mutable sop : Index.t;
  mutable pso : Index.t;
  mutable pos : Index.t;
  mutable osp : Index.t;
  mutable ops : Index.t;
  (* Shared terminal-list families, keyed by packed id pairs. *)
  mutable o_lists : (int, Sorted_ivec.t) Hashtbl.t;  (* (s,p) -> objects;    spo & pso *)
  mutable p_lists : (int, Sorted_ivec.t) Hashtbl.t;  (* (s,o) -> properties; sop & osp *)
  mutable s_lists : (int, Sorted_ivec.t) Hashtbl.t;  (* (p,o) -> subjects;   pos & ops *)
  mutable size : int;
  mutable repr : Sorted_ivec.kind;
      (* Target representation: [Raw] stores stay mutable; a compressed
         kind makes [add_bulk_ids] end with a whole-store [compress],
         and point mutations [inflate] back to the mutable form. *)
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
    o_lists = Hashtbl.create 1024;
    p_lists = Hashtbl.create 1024;
    s_lists = Hashtbl.create 1024;
    size = 0;
    repr;
  }

let dict t = t.dict

let is_flat t = Index.is_flat t.spo

let repr t = t.repr

let repr_name t = if is_flat t then Sorted_ivec.kind_name t.repr else "raw"

(* In-place structural adoption: [dst] takes over [src]'s indices and
   terminal lists while keeping its own identity, so aliases to [dst]
   (a dataset's graph table, a delta layer's base) observe the rebuilt
   contents.  Both stores must share one dictionary — ids are only
   meaningful relative to it. *)
let replace_contents dst ~from:src =
  if dst.dict != src.dict then
    invalid_arg "Hexastore.replace_contents: stores must share a dictionary";
  dst.spo <- src.spo;
  dst.sop <- src.sop;
  dst.pso <- src.pso;
  dst.pos <- src.pos;
  dst.osp <- src.osp;
  dst.ops <- src.ops;
  dst.o_lists <- src.o_lists;
  dst.p_lists <- src.p_lists;
  dst.s_lists <- src.s_lists;
  dst.size <- src.size;
  dst.repr <- src.repr

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
  let check_list table key =
    match Hashtbl.find_opt table key with
    | Some l -> Sorted_ivec.check_invariant l
    | None -> ()
  in
  check_list t.o_lists (Pair_key.make s p);
  check_list t.p_lists (Pair_key.make s o);
  check_list t.s_lists (Pair_key.make p o);
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
  let o_list = Index.get_or_create_list t.o_lists (Pair_key.make s p) in
  if not (Sorted_ivec.add o_list o) then false
  else begin
    Index.link t.spo ~first:s ~second:p o_list;
    Index.link t.pso ~first:p ~second:s o_list;
    let p_list = Index.get_or_create_list t.p_lists (Pair_key.make s o) in
    ignore (Sorted_ivec.add p_list p);
    Index.link t.sop ~first:s ~second:o p_list;
    Index.link t.osp ~first:o ~second:s p_list;
    let s_list = Index.get_or_create_list t.s_lists (Pair_key.make p o) in
    ignore (Sorted_ivec.add s_list s);
    Index.link t.pos ~first:p ~second:o s_list;
    Index.link t.ops ~first:o ~second:p s_list;
    t.size <- t.size + 1;
    note_mutation m_insert 1;
    if !Debug.enabled then debug_validate t { s; p; o };
    true
  end

let mem_ids t { s; p; o } =
  if is_flat t then
    (* Flat stores keep no list tables — answer via the spo streams. *)
    match Index.find_list t.spo s p with
    | None -> false
    | Some l -> Sorted_ivec.mem l o
  else
    match Hashtbl.find_opt t.o_lists (Pair_key.make s p) with
    | None -> false
    | Some l -> Sorted_ivec.mem l o

let remove_ids t { s; p; o } =
  let key_sp = Pair_key.make s p in
  match Hashtbl.find_opt t.o_lists key_sp with
  | None -> false
  | Some o_list ->
      if not (Sorted_ivec.remove o_list o) then false
      else begin
        let o_empty = Sorted_ivec.is_empty o_list in
        if o_empty then Hashtbl.remove t.o_lists key_sp;
        Index.unlink t.spo ~first:s ~second:p ~list_empty:o_empty;
        Index.unlink t.pso ~first:p ~second:s ~list_empty:o_empty;
        let key_so = Pair_key.make s o in
        (match Hashtbl.find_opt t.p_lists key_so with
        | None -> assert false
        | Some p_list ->
            ignore (Sorted_ivec.remove p_list p);
            let p_empty = Sorted_ivec.is_empty p_list in
            if p_empty then Hashtbl.remove t.p_lists key_so;
            Index.unlink t.sop ~first:s ~second:o ~list_empty:p_empty;
            Index.unlink t.osp ~first:o ~second:s ~list_empty:p_empty);
        let key_po = Pair_key.make p o in
        (match Hashtbl.find_opt t.s_lists key_po with
        | None -> assert false
        | Some s_list ->
            ignore (Sorted_ivec.remove s_list s);
            let s_empty = Sorted_ivec.is_empty s_list in
            if s_empty then Hashtbl.remove t.s_lists key_po;
            Index.unlink t.pos ~first:p ~second:o ~list_empty:s_empty;
            Index.unlink t.ops ~first:o ~second:p ~list_empty:s_empty);
        t.size <- t.size - 1;
        note_mutation m_delete 1;
        if !Debug.enabled then debug_validate t { s; p; o };
        true
      end

(* --- bulk loading --------------------------------------------------- *)

let add_bulk_ids t triples =
  (* Pass A — sorted by (s, p, o): o-lists, spo, pso all receive keys in
     monotone order, so every insertion hits the O(1) append path on an
     initially-empty store.  Duplicates (within the batch or against the
     store) are detected here and excluded from the later passes. *)
  let arr = Array.copy triples in
  Array.stable_sort (Ordering.compare_triples Spo) arr;
  let fresh = ref [] in
  let fresh_count = ref 0 in
  Array.iter
    (fun tr ->
      let o_list = Index.get_or_create_list t.o_lists (Pair_key.make tr.s tr.p) in
      if Sorted_ivec.add o_list tr.o then begin
        Index.link_bulk t.spo ~first:tr.s ~second:tr.p o_list;
        Index.link_bulk t.pso ~first:tr.p ~second:tr.s o_list;
        fresh := tr :: !fresh;
        incr fresh_count
      end)
    arr;
  let fresh = Array.of_list !fresh in
  (* Pass B — sorted by (s, o, p): p-lists, sop, osp. *)
  Array.stable_sort (Ordering.compare_triples Sop) fresh;
  Array.iter
    (fun tr ->
      let p_list = Index.get_or_create_list t.p_lists (Pair_key.make tr.s tr.o) in
      ignore (Sorted_ivec.add p_list tr.p);
      Index.link_bulk t.sop ~first:tr.s ~second:tr.o p_list;
      Index.link_bulk t.osp ~first:tr.o ~second:tr.s p_list)
    fresh;
  (* Pass C — sorted by (p, o, s): s-lists, pos, ops. *)
  Array.stable_sort (Ordering.compare_triples Pos) fresh;
  Array.iter
    (fun tr ->
      let s_list = Index.get_or_create_list t.s_lists (Pair_key.make tr.p tr.o) in
      ignore (Sorted_ivec.add s_list tr.s);
      Index.link_bulk t.pos ~first:tr.p ~second:tr.o s_list;
      Index.link_bulk t.ops ~first:tr.o ~second:tr.p s_list)
    fresh;
  (* Passes B and C meet o headers interleaved (and any pass meets
     headers below an existing store's): each index merges the ones it
     deferred in one step, before anything can read its headers. *)
  List.iter Index.seal [ t.spo; t.sop; t.pso; t.pos; t.osp; t.ops ];
  t.size <- t.size + !fresh_count;
  note_mutation m_insert !fresh_count;
  !fresh_count

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

let count t (pat : Pattern.t) =
  let shape = Pattern.shape pat in
  note_probe shape;
  match shape with
  | Pattern.All ->
      if mem_ids t { s = Option.get pat.s; p = Option.get pat.p; o = Option.get pat.o } then 1
      else 0
  | Pattern.Sp -> (
      match Index.find_list t.spo (Option.get pat.s) (Option.get pat.p) with
      | None -> 0
      | Some l -> Sorted_ivec.length l)
  | Pattern.So -> (
      match Index.find_list t.sop (Option.get pat.s) (Option.get pat.o) with
      | None -> 0
      | Some l -> Sorted_ivec.length l)
  | Pattern.Po -> (
      match Index.find_list t.pos (Option.get pat.p) (Option.get pat.o) with
      | None -> 0
      | Some l -> Sorted_ivec.length l)
  | Pattern.S -> (
      match Index.find_vector t.spo (Option.get pat.s) with
      | None -> 0
      | Some v -> Pair_vector.total v)
  | Pattern.P -> (
      match Index.find_vector t.pso (Option.get pat.p) with
      | None -> 0
      | Some v -> Pair_vector.total v)
  | Pattern.O -> (
      match Index.find_vector t.osp (Option.get pat.o) with
      | None -> 0
      | Some v -> Pair_vector.total v)
  | Pattern.None_bound -> t.size

let fold f t acc = Seq.fold_left (fun acc tr -> f tr acc) acc (full_scan t)

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

(* The paper-notation accessors read the shared tables directly on raw
   stores; a flat store has no tables, so they take the two-level index
   path (same lists, as slices of the terminal streams). *)
let objects_of_sp t ~s ~p =
  probe_lists Ordering.Spo
    (if is_flat t then Index.find_list t.spo s p
     else Hashtbl.find_opt t.o_lists (Pair_key.make s p))

let properties_of_so t ~s ~o =
  probe_lists Ordering.Sop
    (if is_flat t then Index.find_list t.sop s o
     else Hashtbl.find_opt t.p_lists (Pair_key.make s o))

let subjects_of_po t ~p ~o =
  probe_lists Ordering.Pos
    (if is_flat t then Index.find_list t.pos p o
     else Hashtbl.find_opt t.s_lists (Pair_key.make p o))

let subjects t = Index.headers t.spo
let properties t = Index.headers t.pso
let objects t = Index.headers t.osp

(* --- accounting ------------------------------------------------------- *)

(* Exact accounting: the table's bucket array plus 4 words per entry
   (bucket cons: block header, key, value, next) plus each list's own
   footprint.  On flat stores the tables are empty husks and the
   terminal payloads are counted inside the indices' streams. *)
let lists_memory table =
  let stats = Hashtbl.stats table in
  Hashtbl.fold
    (fun _ l acc -> acc + 4 + Sorted_ivec.memory_words l)
    table
    (stats.Hashtbl.num_buckets + 4)

let memory_words t =
  Index.memory_words t.spo + Index.memory_words t.sop + Index.memory_words t.pso
  + Index.memory_words t.pos + Index.memory_words t.osp + Index.memory_words t.ops
  + lists_memory t.o_lists + lists_memory t.p_lists + lists_memory t.s_lists

let memory_words_with_dict t = memory_words t + Dict.Term_dict.memory_words t.dict

(* --- representation switching ----------------------------------------- *)

(* Whole-store re-encode into six flat compressed indices.  The shared
   list tables are dropped (their contents live on, concatenated inside
   the terminal streams); point mutations revert via {!inflate}. *)
let compress t =
  if t.repr <> Sorted_ivec.Raw && not (is_flat t) then begin
    let before = memory_words t in
    t.spo <- Index.compress t.spo;
    t.sop <- Index.compress t.sop;
    t.pso <- Index.compress t.pso;
    t.pos <- Index.compress t.pos;
    t.osp <- Index.compress t.osp;
    t.ops <- Index.compress t.ops;
    t.o_lists <- Hashtbl.create 1;
    t.p_lists <- Hashtbl.create 1;
    t.s_lists <- Hashtbl.create 1;
    Sorted_ivec.note_bytes_saved ((before - memory_words t) * 8)
  end

(* Rebuild the mutable hashed form from the flat streams — the write
   path's escape hatch. *)
let inflate t =
  if is_flat t then begin
    let all = Array.of_seq (full_scan t) in
    t.spo <- Index.create ();
    t.sop <- Index.create ();
    t.pso <- Index.create ();
    t.pos <- Index.create ();
    t.osp <- Index.create ();
    t.ops <- Index.create ();
    t.o_lists <- Hashtbl.create 1024;
    t.p_lists <- Hashtbl.create 1024;
    t.s_lists <- Hashtbl.create 1024;
    t.size <- 0;
    ignore (add_bulk_ids t all : int)
  end

(* Public mutation entry points: shadow the raw implementations above
   with representation-aware wrappers.  Point mutations inflate first
   and leave the store raw (recompressing per triple would be O(n));
   bulk loads re-establish the configured representation at the end, so
   a delta-layer flush lands compressed again. *)
let add_ids t tr =
  if is_flat t then inflate t;
  add_ids t tr

let remove_ids t tr =
  if is_flat t then inflate t;
  remove_ids t tr

let add_bulk_ids t triples =
  if is_flat t then inflate t;
  let n = add_bulk_ids t triples in
  if t.repr <> Sorted_ivec.Raw then compress t;
  n

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
  (* Twin orderings share terminal lists physically on raw stores; a
     flat store materialises fresh slice headers per lookup, so sharing
     there means equal windows onto one stream — logical equality. *)
  let same_list a b = if is_flat t then Sorted_ivec.equal a b else a == b in
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
