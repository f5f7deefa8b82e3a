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

(* The structural fields are mutable so that bulk writes rebuild a
   store in place while aliases (datasets, delta layers) keep pointing
   at the same [t].  The three shared terminal-list families are reached
   through the orderings that own them: o-lists (s,p) through [spo]
   (and its twin [pso]), p-lists (s,o) through [sop] (and [osp]),
   s-lists (p,o) through [pos] (and [ops]).  Sibling orderings share
   one header level: [spo]/[sop] on s, [pso]/[pos] on p, [osp]/[ops] on
   o. *)
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
      (* The codec of the orderings' streams: [int array]s ([Raw]) or
         bit-packed ([Packed]). *)
}

let repr_of_env () =
  match Sys.getenv_opt "HEXASTORE_REPR" with
  | None | Some "" -> Sorted_ivec.Raw
  | Some s -> (
      match Sorted_ivec.kind_of_name s with
      | Some k -> k
      | None -> invalid_arg (Printf.sprintf "HEXASTORE_REPR: unknown representation %S" s))

(* The six orderings from the three list families' fills: [fill owner
   level] builds [spo], [sop] or [pos] with the sibling header [level]
   and returns it with the function that builds its twin.  Siblings share one header
   level: sop adopts spo's (s), pso pos's (p), and ops osp's (o). *)
let orderings (fill : Ordering.t -> Index.t option -> Index.t * (?level:Index.t -> unit -> Index.t)) =
  let spo, pso = fill Ordering.Spo None in
  let sop, osp = fill Ordering.Sop (Some spo) in
  let pos, ops = fill Ordering.Pos None in
  let osp = osp () in
  (spo, sop, pso ~level:pos (), pos, osp, ops ~level:osp ())

(* The fill from columns sorted on (s, p, o): each list family is one
   fill of its owner ({!Index.of_sorted_columns}).  The (s, o, p) and
   (p, o, s) families are two stable counting-sort passes away from
   (s, p, o), and they share the first one, on o. *)
let fill_orderings kind ~s ~p ~o =
  let by_o = Radix.sort o (Array.init (Array.length o) Fun.id) in
  let sop = Radix.sort s (Array.copy by_o) and pos = Radix.sort p by_o in
  orderings (fun ord level ->
      let fill perm firsts seconds thirds =
        let gather a =
          let g = Array.make (Array.length perm) 0 in
          for j = 0 to Array.length perm - 1 do
            Array.unsafe_set g j a.(Array.unsafe_get perm j)
          done;
          g
        in
        Index.of_sorted_columns ~kind ?level ~firsts:(gather firsts) ~seconds:(gather seconds)
          ~thirds:(gather thirds) ()
      in
      match ord with
      | Ordering.Sop -> fill sop s o p
      | Pos -> fill pos p o s
      | _ -> Index.of_sorted_columns ~kind ?level ~firsts:s ~seconds:p ~thirds:o ())

let create ?dict ?repr () =
  let dict = match dict with Some d -> d | None -> Dict.Term_dict.create () in
  let repr = match repr with Some r -> r | None -> repr_of_env () in
  let spo, sop, pso, pos, osp, ops = fill_orderings repr ~s:[||] ~p:[||] ~o:[||] in
  { dict; spo; sop; pso; pos; osp; ops; size = 0; repr }

let dict t = t.dict

let repr t = t.repr

let repr_name t = Sorted_ivec.kind_name t.repr

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

let index_of t = function
  | Ordering.Spo -> t.spo
  | Ordering.Sop -> t.sop
  | Ordering.Pso -> t.pso
  | Ordering.Pos -> t.pos
  | Ordering.Osp -> t.osp
  | Ordering.Ops -> t.ops

let mem_ids t { s; p; o } =
  match Index.find_list t.spo s p with None -> false | Some l -> Sorted_ivec.mem l o

(* --- bulk builds ------------------------------------------------------ *)

let install t (spo, sop, pso, pos, osp, ops) n =
  t.spo <- spo;
  t.sop <- sop;
  t.pso <- pso;
  t.pos <- pos;
  t.osp <- osp;
  t.ops <- ops;
  t.size <- n

let fill_columns t ~s ~p ~o = install t (fill_orderings t.repr ~s ~p ~o) (Array.length o)

let of_sorted_columns ?dict ?repr ~s ~p ~o () =
  let t = create ?dict ?repr () in
  fill_columns t ~s ~p ~o;
  t

(* From empty: the first [n] triples of the columns, in any order and
   with repeats, sorted on (s, p, o) by three counting-sort passes of
   one permutation (o, then p, then s) and filled without their
   repeats.  Returns how many triples the store holds. *)
let fill_unsorted t ~s ~p ~o n =
  let perm = Radix.sort s (Radix.sort p (Radix.sort o (Array.init n Fun.id))) in
  let s' = Array.make n 0 and p' = Array.make n 0 and o' = Array.make n 0 in
  let k = ref 0 in
  for j = 0 to n - 1 do
    let i = Array.unsafe_get perm j in
    let si = s.(i) and pi = p.(i) and oi = o.(i) in
    let m = !k in
    if m = 0 || oi <> o'.(m - 1) || pi <> p'.(m - 1) || si <> s'.(m - 1) then begin
      s'.(m) <- si;
      p'.(m) <- pi;
      o'.(m) <- oi;
      k := m + 1
    end
  done;
  let trim a = if !k = n then a else Array.sub a 0 !k in
  fill_columns t ~s:(trim s') ~p:(trim p') ~o:(trim o');
  !k

(* The store (t \ remove) ∪ add, for a populated [t], [add] absent from
   it and [remove] present, both sorted on (s, p, o): each list family
   is one merge of its owner's scan with the batches and one fill
   ({!Index.refill}). *)
let rebuild t ~add ~remove =
  install t
    (orderings (fun ord level -> Index.refill ?level (index_of t ord) ord ~add ~remove))
    (t.size + Array.length add - Array.length remove)

(* The batches' effect is decided up front by membership: a triple of
   [remove] in the store leaves it (unless [add] has it too, then it
   counts as removed and added back), a triple of [add] not in the
   store joins it.  Nothing is rebuilt when nothing changes.  An empty
   store has nothing to remove, and [add] fills it as columns. *)
let apply_bulk_ids t ~add ~remove =
  if t.size = 0 then begin
    let added =
      if Array.length add = 0 then 0
      else
        fill_unsorted t
          ~s:(Array.map (fun tr -> tr.s) add)
          ~p:(Array.map (fun tr -> tr.p) add)
          ~o:(Array.map (fun tr -> tr.o) add)
          (Array.length add)
    in
    note_mutation m_insert added;
    (added, 0)
  end
  else if Array.length add = 0 && Array.length remove = 0 then (0, 0)
  else begin
    let add = Ordering.sort_distinct Spo add and remove = Ordering.sort_distinct Spo remove in
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
    if Array.length fresh > 0 || gone <> [] then rebuild t ~add:fresh ~remove:(Array.of_list gone);
    let added = Array.length fresh + List.length readded and removed = List.length present in
    note_mutation m_insert added;
    note_mutation m_delete removed;
    (added, removed)
  end

let add_bulk_ids t triples = fst (apply_bulk_ids t ~add:triples ~remove:[||])

let remove_bulk_ids t triples = snd (apply_bulk_ids t ~add:[||] ~remove:triples)

let add_ids t tr = add_bulk_ids t [| tr |] = 1

let remove_ids t tr = remove_bulk_ids t [| tr |] = 1

(* --- reads ------------------------------------------------------------ *)

(* Each of the 8 shapes is served by the ordering that makes the access
   a header/vector/list traversal, pushed straight from its columns: no
   sequence cells and no triple records. *)
let iter t (pat : Pattern.t) f =
  let shape = Pattern.shape pat in
  note_probe shape;
  (* A scan observes its length only when it found something. *)
  let scanned n = if n > 0 then Telemetry.Metrics.observe m_scan_len n in
  let list idx first second g =
    let k = Index.entry idx first second in
    if k >= 0 then begin
      Index.iter_run idx k g;
      if !Telemetry.Config.enabled then scanned (Index.run_length idx k)
    end
  in
  match (shape, pat.s, pat.p, pat.o) with
  | Pattern.All, Some s, Some p, Some o -> if mem_ids t { s; p; o } then f s p o
  | Pattern.Sp, Some s, Some p, _ -> list t.spo s p (fun o -> f s p o)
  | Pattern.So, Some s, _, Some o -> list t.sop s o (fun p -> f s p o)
  | Pattern.Po, _, Some p, Some o -> list t.pos p o (fun s -> f s p o)
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

(* A galloping cursor over ascending probes from position [start]:
   resumes from the last hit, restarting when a probe goes backwards. *)
let cursor start search =
  let last_k = ref min_int and last_i = ref start in
  fun k ->
    let from = if k < !last_k then start else !last_i in
    let i = search ~from k in
    last_k := k;
    last_i := i;
    i

(* Each run pushes the matches in [[lo, hi)] at the scan position: one
   gallop to [lo] from the previous run's start, then a walk of the
   serving structure up to [hi].  The walk reads each key once and stops
   after key [hi - 1] (keys ascend strictly), so a merge-join probe
   [run k (k + 1)] reads no key past its hit and allocates nothing per
   entry. *)
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
            (* Both prefix levels bound: the matches are one shared
               terminal list, keyed directly by the scan position. *)
            match Index.find_list index first second with
            | None -> fun _ _ _ -> ()
            | Some l ->
                Telemetry.Metrics.observe m_scan_len (Sorted_ivec.length l);
                let n = Sorted_ivec.length l and seek = cursor 0 (Sorted_ivec.search_from l) in
                fun lo hi f ->
                  let i = ref (seek lo) in
                  while !i < n do
                    let third = Sorted_ivec.get l !i in
                    if third < hi then begin
                      emit f first second third;
                      i := if third >= hi - 1 then n else !i + 1
                    end
                    else i := n
                  done)
        | [ Some first; None; None ] ->
            (* One bound level: the header's entries, each key with its
               whole terminal run. *)
            let r = Index.rank index first in
            if r < 0 then fun _ _ _ -> ()
            else begin
              if !Telemetry.Config.enabled then
                Telemetry.Metrics.observe m_scan_len (Index.header_triples index first);
              let k1 = Index.entry_off index (r + 1) in
              let seek = cursor (Index.entry_off index r) (Index.next_geq index ~hi:k1) in
              fun lo hi f ->
                let k = seek lo in
                if k < k1 then begin
                  let key = Index.key index k in
                  if key < hi then
                    let stop =
                      if key >= hi - 1 then k + 1 else Index.next_geq index ~from:(k + 1) ~hi:k1 hi
                    in
                    ignore
                      (Index.iter_entries index ~lo:k ~hi:stop (fun second third ->
                           emit f first second third))
                end
            end
        | [ None; None; None ] ->
            (* Fully free: the sorted headers, each with its whole
               subtree.  A single key is one header lookup. *)
            let hs = Index.headers_view index in
            let n = Sorted_ivec.length hs and seek = cursor 0 (Sorted_ivec.search_from hs) in
            let header f first =
              ignore (Index.iter_header index first (fun second third -> emit f first second third))
            in
            fun lo hi f ->
              if lo >= 0 && hi = lo + 1 then header f lo
              else begin
                let i = ref (seek lo) in
                while !i < n do
                  let first = Sorted_ivec.get hs !i in
                  if first < hi then begin
                    header f first;
                    i := if first >= hi - 1 then n else !i + 1
                  end
                  else i := n
                done
              end
        | _ ->
            (* serving_ordering guarantees bound-prefix shapes only. *)
            assert false
      in
      Some (ord, run)

(* --- range boundaries --------------------------------------------------- *)

(* Interior boundary keys that carve [pat]'s sorted scan on [pos] into
   [parts] contiguous key ranges.  Boundaries are taken at quantile
   indices of the serving structure (terminal-list elements, a header's
   entry keys or headers), so parts are balanced by structural size, not exact
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
      | [ Some first; None; None ] ->
          let r = Index.rank index first in
          if r < 0 then [||]
          else
            let k0 = Index.entry_off index r in
            boundaries (Index.entry_off index (r + 1) - k0) (fun j -> Index.key index (k0 + j))
      | [ None; None; None ] ->
          let hs = Index.headers_view index in
          boundaries (Sorted_ivec.length hs) (Sorted_ivec.get hs)
      | _ ->
          (* serving_ordering guarantees bound-prefix shapes only. *)
          assert false)

(* --- direct accessors ------------------------------------------------ *)

let probe_lists ord r =
  note_ord ord;
  (match r with
  | Some l when !Telemetry.Config.enabled ->
      Telemetry.Metrics.observe m_scan_len (Sorted_ivec.length l)
  | _ -> ());
  r

(* The paper-notation accessors ask the ordering that owns each list
   family. *)
let objects_of_sp t ~s ~p = probe_lists Ordering.Spo (Index.find_list t.spo s p)
let properties_of_so t ~s ~o = probe_lists Ordering.Sop (Index.find_list t.sop s o)
let subjects_of_po t ~p ~o = probe_lists Ordering.Pos (Index.find_list t.pos p o)

let subjects t = Index.headers t.spo
let properties t = Index.headers t.pso
let objects t = Index.headers t.osp

(* --- accounting ------------------------------------------------------- *)

(* Each terminal stream is counted once, inside the owner that holds it. *)
let memory_words t =
  Index.memory_words t.spo + Index.memory_words t.sop + Index.memory_words t.pso
  + Index.memory_words t.pos + Index.memory_words t.osp + Index.memory_words t.ops

let memory_words_with_dict t = memory_words t + Dict.Term_dict.memory_words t.dict

(* --- term-level API --------------------------------------------------- *)

let add t triple = add_ids t (Dict.Term_dict.encode_triple t.dict triple)

let add_list t triples =
  add_bulk_ids t (Array.of_list (List.map (Dict.Term_dict.encode_triple t.dict) triples))

let of_triples triples =
  let t = create () in
  ignore (add_list t triples);
  t

(* Text to id columns to store: the columns grow by doubling and are
   sorted in place of triple records. *)
let load_ntriples ?repr read =
  let dict = Dict.Term_dict.create () in
  let n = ref 0 and s = ref (Array.make 4096 0) and p = ref (Array.make 4096 0) and o = ref (Array.make 4096 0) in
  let grow a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  Dict.Term_dict.encode_ntriples dict read (fun si pi oi ->
      if !n = Array.length !s then begin
        s := grow !s;
        p := grow !p;
        o := grow !o
      end;
      Array.unsafe_set !s !n si;
      Array.unsafe_set !p !n pi;
      Array.unsafe_set !o !n oi;
      incr n);
  let t = create ~dict ?repr () in
  ignore (fill_unsorted t ~s:!s ~p:!p ~o:!o !n);
  t

let remove t triple =
  match Dict.Term_dict.find_triple t.dict triple with
  | None -> false
  | Some ids -> remove_ids t ids

let mem t triple =
  match Dict.Term_dict.find_triple t.dict triple with
  | None -> false
  | Some ids -> mem_ids t ids

let pattern_of_terms dict ?s ?p ?o () =
  let resolve = function
    | None -> Some None  (* wildcard *)
    | Some term -> (
        match Dict.Term_dict.find_term dict term with None -> None | Some id -> Some (Some id))
  in
  match (resolve s, resolve p, resolve o) with
  | Some s, Some p, Some o -> Some { Pattern.s; p; o }
  | _ -> None  (* some term is unknown: nothing can match *)

let find_via dict iter ?s ?p ?o () =
  match pattern_of_terms dict ?s ?p ?o () with
  | None -> Seq.empty
  | Some pat ->
      let acc = ref [] in
      iter pat (fun s p o -> acc := Dict.Term_dict.decode_triple dict { s; p; o } :: !acc);
      List.to_seq (List.rev !acc)

let find t = find_via t.dict (iter t)

let count_terms t ?s ?p ?o () =
  match pattern_of_terms t.dict ?s ?p ?o () with None -> 0 | Some pat -> count t pat

let to_triples t = List.rev (fold (fun tr acc -> Dict.Term_dict.decode_triple t.dict tr :: acc) t [])

(* --- invariants ------------------------------------------------------- *)

let check_invariant t =
  (* Twin orderings share terminal lists physically: one window of the
     owner's stream (each lookup hands out a fresh slice header). *)
  let same_list = Sorted_ivec.shares in
  Index.check_invariant t.spo;
  Index.check_invariant t.sop;
  Index.check_invariant t.pso;
  Index.check_invariant t.pos;
  Index.check_invariant t.osp;
  Index.check_invariant t.ops;
  (* Siblings read one header level. *)
  assert (Index.shares_level t.spo t.sop);
  assert (Index.shares_level t.pso t.pos);
  assert (Index.shares_level t.osp t.ops);
  (* The six indices must agree on the triple set and on its size. *)
  assert (Index.total t.spo = t.size);
  assert (Index.total t.sop = t.size);
  assert (Index.total t.pso = t.size);
  assert (Index.total t.pos = t.size);
  assert (Index.total t.osp = t.size);
  assert (Index.total t.ops = t.size);
  (* Terminal lists must be physically shared between twin orderings. *)
  let hs = Index.headers_view t.spo in
  for r = 0 to Sorted_ivec.length hs - 1 do
    let s = Sorted_ivec.get hs r in
    for k = Index.entry_off t.spo r to Index.entry_off t.spo (r + 1) - 1 do
      let p = Index.key t.spo k and l = Index.run t.spo k in
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
        l
    done
  done
