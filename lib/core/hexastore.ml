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
   pointing at the same [t].  The three shared terminal-list families
   are reached through the orderings that hold them: o-lists (s,p)
   through [spo] (and [pso]), p-lists (s,o) through [sop] (and [osp]),
   s-lists (p,o) through [pos] (and [ops]). *)
type t = {
  dict : Dict.Term_dict.t;
  mutable spo : Index.t;
  mutable sop : Index.t;
  mutable pso : Index.t;
  mutable pos : Index.t;
  mutable osp : Index.t;
  mutable ops : Index.t;
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
    size = 0;
    repr;
  }

let dict t = t.dict

let is_flat t = Index.is_flat t.spo

let repr t = t.repr

let repr_name t = if is_flat t then Sorted_ivec.kind_name t.repr else "raw"

(* In-place structural adoption: [dst] takes over [src]'s indices (and
   with them the terminal lists) while keeping its own identity, so
   aliases to [dst] (a dataset's graph table, a delta layer's base)
   observe the rebuilt contents.  Both stores must share one dictionary
   — ids are only meaningful relative to it. *)
let replace_contents dst ~from:src =
  if dst.dict != src.dict then
    invalid_arg "Hexastore.replace_contents: stores must share a dictionary";
  dst.spo <- src.spo;
  dst.sop <- src.sop;
  dst.pso <- src.pso;
  dst.pos <- src.pos;
  dst.osp <- src.osp;
  dst.ops <- src.ops;
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

(* --- bulk passes ------------------------------------------------------ *)

let subj tr = tr.s
let pred tr = tr.p
let obj tr = tr.o

(* The build from empty: sort once and drop repeats, then each list
   family is one more sort and one fill of its two orderings
   ({!Index.of_sorted_columns}) — no table, no link, no growth. *)
let fill t triples =
  let sorted = Ordering.sort_triples Spo triples in
  let n = ref 0 in
  Array.iter
    (fun tr ->
      let repeat =
        !n > 0
        &&
        let prev = sorted.(!n - 1) in
        prev.s = tr.s && prev.p = tr.p && prev.o = tr.o
      in
      if not repeat then begin
        sorted.(!n) <- tr;
        incr n
      end)
    sorted;
  let distinct = Array.sub sorted 0 !n in
  let build a first second third =
    Index.of_sorted_columns ~firsts:(Array.map first a) ~seconds:(Array.map second a)
      ~thirds:(Array.map third a)
  in
  let spo, pso = build distinct subj pred obj in
  let sop, osp = build (Ordering.sort_triples Sop distinct) subj obj pred in
  let pos, ops = build (Ordering.sort_triples Pos distinct) pred obj subj in
  t.spo <- spo;
  t.sop <- sop;
  t.pso <- pso;
  t.pos <- pos;
  t.osp <- osp;
  t.ops <- ops;
  t.size <- Array.length distinct;
  Array.length distinct

let seal_all t = List.iter Index.seal [ t.spo; t.sop; t.pso; t.pos; t.osp; t.ops ]

(* Into a populated store: one sorted pass per list family, each run
   appended to or merged into its list, then each index merges the
   headers and keys that arrived out of order once per touched vector
   ({!Index.seal}). *)
let merge t triples =
  (* Pass A — (s, p, o): o-lists, spo, pso.  Triples already in the
     store or repeated in the batch are left out of the later passes. *)
  let fresh = ref [] in
  Index.link_runs t.spo ~twin:t.pso ~first:subj ~second:pred ~third:obj
    (Ordering.sort_triples Spo triples)
    ~fresh:(fun tr -> fresh := tr :: !fresh);
  let fresh = Array.of_list !fresh in
  (* Pass B — (s, o, p): p-lists, sop, osp; pass C — (p, o, s): s-lists,
     pos, ops. *)
  let ignore_fresh _ = () in
  Index.link_runs t.sop ~twin:t.osp ~first:subj ~second:obj ~third:pred
    (Ordering.sort_triples Sop fresh) ~fresh:ignore_fresh;
  Index.link_runs t.pos ~twin:t.ops ~first:pred ~second:obj ~third:subj
    (Ordering.sort_triples Pos fresh) ~fresh:ignore_fresh;
  seal_all t;
  t.size <- t.size + Array.length fresh;
  Array.length fresh

(* The store's emptiness picks the path: set-up and reopen fill, delta
   flushes merge. *)
let add_bulk_ids t triples =
  let n = if t.size = 0 then fill t triples else merge t triples in
  note_mutation m_insert n;
  n

let remove_bulk_ids t triples =
  (* Pass A — (s, p, o): keeps the triples actually present (once each),
     taking them out of the o-lists, spo and pso. *)
  let gone = ref [] in
  Index.unlink_runs t.spo ~twin:t.pso ~first:subj ~second:pred ~third:obj
    (Ordering.sort_triples Spo triples)
    ~gone:(fun tr -> gone := tr :: !gone);
  let gone = Array.of_list !gone in
  (* Pass B — (s, o, p): p-lists, sop, osp; pass C — (p, o, s): s-lists,
     pos, ops. *)
  let ignore_gone _ = () in
  Index.unlink_runs t.sop ~twin:t.osp ~first:subj ~second:obj ~third:pred
    (Ordering.sort_triples Sop gone) ~gone:ignore_gone;
  Index.unlink_runs t.pos ~twin:t.ops ~first:pred ~second:obj ~third:subj
    (Ordering.sort_triples Pos gone) ~gone:ignore_gone;
  (* Entries and headers the passes emptied leave their vectors in one
     compaction per vector. *)
  seal_all t;
  t.size <- t.size - Array.length gone;
  note_mutation m_delete (Array.length gone);
  Array.length gone

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
  let list l g =
    match l with
    | None -> ()
    | Some l ->
        Telemetry.Metrics.observe m_scan_len (Sorted_ivec.length l);
        Sorted_ivec.iter g l
  in
  let header index h g =
    match Index.find_vector index h with
    | None -> ()
    | Some v ->
        Telemetry.Metrics.observe m_scan_len (Pair_vector.total v);
        Pair_vector.iter (fun second l -> Sorted_ivec.iter (g second) l) v
  in
  match (shape, pat.s, pat.p, pat.o) with
  | Pattern.All, Some s, Some p, Some o -> if mem_ids t { s; p; o } then f s p o
  | Pattern.Sp, Some s, Some p, _ -> list (Index.find_list t.spo s p) (fun o -> f s p o)
  | Pattern.So, Some s, _, Some o -> list (Index.find_list t.sop s o) (fun p -> f s p o)
  | Pattern.Po, _, Some p, Some o -> list (Index.find_list t.pos p o) (fun s -> f s p o)
  | Pattern.S, Some s, _, _ -> header t.spo s (fun p o -> f s p o)
  | Pattern.P, _, Some p, _ -> header t.pso p (fun s o -> f s p o)
  | Pattern.O, _, _, Some o -> header t.osp o (fun s p -> f s p o)
  | _ -> Seq.iter (fun tr -> f tr.s tr.p tr.o) (full_scan t)

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

(* Whole-store re-encode into six flat compressed indices: the terminal
   lists live on, concatenated inside each ordering's terminal stream;
   point mutations revert via {!inflate}. *)
let compress t =
  if t.repr <> Sorted_ivec.Raw && not (is_flat t) then begin
    let before = memory_words t in
    t.spo <- Index.compress t.spo;
    t.sop <- Index.compress t.sop;
    t.pso <- Index.compress t.pso;
    t.pos <- Index.compress t.pos;
    t.osp <- Index.compress t.osp;
    t.ops <- Index.compress t.ops;
    Sorted_ivec.note_bytes_saved ((before - memory_words t) * 8)
  end

(* Rebuild the mutable hashed form from the flat streams — the write
   path's escape hatch — with the fill of a load from empty. *)
let inflate t = if is_flat t then ignore (fill t (Array.of_seq (full_scan t)) : int)

(* Public mutation entry points: shadow the raw implementations above
   with representation-aware wrappers.  Point mutations and bulk
   removals inflate first and leave the store raw (recompressing per
   triple would be O(n)); bulk loads re-establish the configured
   representation at the end, so a delta-layer flush — bulk removal,
   then bulk load — lands compressed again, recompressed once. *)
let add_ids t tr =
  if is_flat t then inflate t;
  add_ids t tr

let remove_ids t tr =
  if is_flat t then inflate t;
  remove_ids t tr

let remove_bulk_ids t triples =
  if Array.length triples = 0 then 0
  else begin
    if is_flat t then inflate t;
    remove_bulk_ids t triples
  end

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
