open Vectors

type id_triple = Dict.Term_dict.id_triple = {
  s : int;
  p : int;
  o : int;
}

(* Telemetry: buffered-mutation counters, pending-size gauges, and a
   flush cost profile.  Every hook is one flag read while telemetry is
   off. *)
let m_ins_buf = Telemetry.Metrics.counter "hexastore.delta.insert.buffered"
let m_del_buf = Telemetry.Metrics.counter "hexastore.delta.delete.buffered"
let m_resurrect = Telemetry.Metrics.counter "hexastore.delta.insert.resurrected"
let m_unbuffer = Telemetry.Metrics.counter "hexastore.delta.delete.unbuffered"
let m_flush = Telemetry.Metrics.counter "hexastore.delta.flush.calls"
let m_flush_auto = Telemetry.Metrics.counter "hexastore.delta.flush.auto"
let m_flush_rebuild = Telemetry.Metrics.counter "hexastore.delta.flush.rebuild"
let m_compact = Telemetry.Metrics.counter "hexastore.delta.compact.calls"
let m_merged = Telemetry.Metrics.counter "hexastore.delta.lookup.merged"
let g_pending_ins = Telemetry.Metrics.gauge "hexastore.delta.pending_inserts"
let g_pending_del = Telemetry.Metrics.gauge "hexastore.delta.pending_deletes"
let m_flush_us = Telemetry.Metrics.histogram "hexastore.delta.flush_duration_us"
let m_flush_batch = Telemetry.Metrics.histogram "hexastore.delta.flush_batch"

(* Concurrency protocol (see DESIGN.md §13): one writer stages into the
   buffers and flushes; readers on other domains never touch the live
   buffers — they [pin] a snapshot (frozen base + private buffer copies)
   and release it when done.  [sync] backs that handshake: buffer
   mutation and the pin's copy both hold [lock], and a flush (which
   mutates the shared base the snapshots still read) waits under [cond]
   until every pin is released, while new pins wait out an in-progress
   flush. *)
type sync = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable pins : int;
  mutable flushing : bool;
}

let make_sync () =
  { lock = Mutex.create (); cond = Condition.create (); pins = 0; flushing = false }

(* --- pending buffers ---------------------------------------------------- *)

(* A staged triple.  [live] goes false when the triple leaves its buffer
   (unbuffered, or its tombstone cancelled); [filed] says whether it has
   been filed under its three terms yet. *)
type entry = {
  tr : id_triple;
  mutable live : bool;
  mutable filed : bool;
}

(* The entries filed under one term.  Removal only clears an entry's
   [live] flag, so [entries] (of length [len]) may hold dead ones; they
   are dropped once they outnumber the [live_n] live ones. *)
type bucket = {
  mutable live_n : int;
  mutable len : int;
  mutable entries : entry list;
}

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* A pending buffer: the triple -> entry table is the membership
   authority; the three term tables file every live entry under its
   subject, predicate and object, so a read with a bound position visits
   one bucket instead of the whole buffer.  Writes only touch [members]
   and log the entry; the next read files the logs ([to_file] holds
   entries staged since, [to_unfile] filed entries removed since).
   [log_dead] counts the dead entries in [to_file]. *)
type buffer = {
  members : (id_triple, entry) Hashtbl.t;
  by_s : bucket Itbl.t;
  by_p : bucket Itbl.t;
  by_o : bucket Itbl.t;
  mutable to_file : entry list;
  mutable log_len : int;
  mutable log_dead : int;
  mutable to_unfile : entry list;
}

let buffer_create n =
  {
    members = Hashtbl.create n;
    by_s = Itbl.create n;
    by_p = Itbl.create n;
    by_o = Itbl.create n;
    to_file = [];
    log_len = 0;
    log_dead = 0;
    to_unfile = [];
  }

let buffer_length b = Hashtbl.length b.members
let buffer_mem b tr = Hashtbl.mem b.members tr

let buffer_reset b =
  Hashtbl.reset b.members;
  Itbl.reset b.by_s;
  Itbl.reset b.by_p;
  Itbl.reset b.by_o;
  b.to_file <- [];
  b.log_len <- 0;
  b.log_dead <- 0;
  b.to_unfile <- []

(* [tr] must not be staged already. *)
let stage b tr =
  let e = { tr; live = true; filed = false } in
  Hashtbl.add b.members tr e;
  b.to_file <- e :: b.to_file;
  b.log_len <- b.log_len + 1

(* [true] iff [tr] was staged.  An emptied buffer starts afresh, which
   also returns its tables to their initial size. *)
let unstage b tr =
  match Hashtbl.find_opt b.members tr with
  | None -> false
  | Some e ->
      Hashtbl.remove b.members tr;
      e.live <- false;
      if Hashtbl.length b.members = 0 then buffer_reset b
      else if e.filed then b.to_unfile <- e :: b.to_unfile
      else begin
        (* Same rule as the buckets: a log mostly of dead entries (writes
           that churn with no read between them) drops them. *)
        b.log_dead <- b.log_dead + 1;
        if 2 * b.log_dead > b.log_len then begin
          b.to_file <- List.filter (fun e -> e.live) b.to_file;
          b.log_len <- b.log_len - b.log_dead;
          b.log_dead <- 0
        end
      end;
      true

let file_under tbl k e =
  match Itbl.find_opt tbl k with
  | Some bk ->
      bk.live_n <- bk.live_n + 1;
      bk.len <- bk.len + 1;
      bk.entries <- e :: bk.entries
  | None -> Itbl.add tbl k { live_n = 1; len = 1; entries = [ e ] }

(* Dropping dead entries once they outnumber the live ones keeps every
   removal amortised O(1).  The filter also drops dead entries whose own
   unfiling comes later in the same drain; [live_n] catches up then. *)
let unfile_under tbl k =
  match Itbl.find_opt tbl k with
  | None -> ()
  | Some bk ->
      bk.live_n <- bk.live_n - 1;
      if bk.live_n = 0 then Itbl.remove tbl k
      else if bk.len - bk.live_n > bk.live_n then begin
        bk.entries <- List.filter (fun e -> e.live) bk.entries;
        bk.len <- List.length bk.entries
      end

(* Drain both logs into the term tables.  Mutates the buffer: only the
   live delta's one writer may call it (pinned views are filed already). *)
let file b =
  if b.to_unfile <> [] then begin
    List.iter
      (fun e ->
        unfile_under b.by_s e.tr.s;
        unfile_under b.by_p e.tr.p;
        unfile_under b.by_o e.tr.o)
      b.to_unfile;
    b.to_unfile <- []
  end;
  if b.to_file <> [] then begin
    List.iter
      (fun e ->
        if e.live then begin
          e.filed <- true;
          file_under b.by_s e.tr.s e;
          file_under b.by_p e.tr.p e;
          file_under b.by_o e.tr.o e
        end)
      b.to_file;
    b.to_file <- [];
    b.log_len <- 0;
    b.log_dead <- 0
  end

(* A private copy with every live entry already filed, so reads of it
   never drain (and never write) — safe from several domains at once. *)
let filed_copy b =
  let c = buffer_create (max 16 (Hashtbl.length b.members)) in
  Hashtbl.iter
    (fun tr _ ->
      let e = { tr; live = true; filed = true } in
      Hashtbl.add c.members tr e;
      file_under c.by_s tr.s e;
      file_under c.by_p tr.p e;
      file_under c.by_o tr.o e)
    b.members;
  c

(* Where [pat]'s matches can be: anywhere (nothing bound), nowhere (a
   bound term has no bucket), or within the shortest bucket among its
   bound terms. *)
type scope =
  | Whole
  | Nowhere
  | Within of bucket

let narrow tbl key scope =
  match (key, scope) with
  | None, _ | _, Nowhere -> scope
  | Some k, _ -> (
      match Itbl.find_opt tbl k with
      | None -> Nowhere
      | Some bk -> (
          match scope with Within cur when cur.len <= bk.len -> scope | _ -> Within bk))

let scope b (pat : Pattern.t) =
  Whole |> narrow b.by_s pat.s |> narrow b.by_p pat.p |> narrow b.by_o pat.o

(* Both reads file the logs first: the live delta's writer only. *)
let buffer_count b (pat : Pattern.t) =
  if Hashtbl.length b.members = 0 then 0
  else begin
    file b;
    match scope b pat with
    | Nowhere -> 0
    | Whole -> Hashtbl.length b.members
    | Within bk when Pattern.bound_count pat = 1 -> bk.live_n
    | Within bk ->
        List.fold_left
          (fun n e -> if e.live && Pattern.matches pat e.tr then n + 1 else n)
          0 bk.entries
  end

(* Matching entries, materialised and sorted at call time so a lazy
   merged sequence never reads the mutable buffer. *)
let buffer_matching b cmp pat =
  if Hashtbl.length b.members = 0 then [||]
  else begin
    file b;
    let hits =
      match scope b pat with
      | Nowhere -> []
      | Whole -> Hashtbl.fold (fun tr _ acc -> tr :: acc) b.members []
      | Within bk ->
          List.fold_left
            (fun acc e -> if e.live && Pattern.matches pat e.tr then e.tr :: acc else acc)
            [] bk.entries
    in
    let arr = Array.of_list hits in
    Array.sort cmp arr;
    arr
  end

(* Exact words, in the style of [Hexastore.memory_words].  A hash table
   is its 5-word record plus its bucket array (1 + buckets) plus 4 words
   per binding (cons block: header, key, data, next).  A staged triple
   costs its 4-word record, its 4-word entry and a [members] binding,
   then one 3-word list cell in each of its three buckets once filed (a
   log cell until then): 21 words when filed.  A term costs a binding
   and its 4-word bucket record: 8 words.  Dead entries still held by a
   bucket or a log cost their cells, and their entry and triple once. *)
let buffer_memory_words b =
  let table_words buckets length = 6 + buckets + (4 * length) in
  let dead = Hashtbl.create 16 in
  let cells = ref 0 in
  let cell e =
    incr cells;
    if not e.live then
      let seen = Hashtbl.find_all dead e.tr in
      if not (List.memq e seen) then Hashtbl.add dead e.tr e
  in
  let terms tbl =
    Itbl.fold
      (fun _ bk acc ->
        List.iter cell bk.entries;
        acc + 8)
      tbl
      (table_words (Itbl.stats tbl).Hashtbl.num_buckets 0)
  in
  let tables = terms b.by_s + terms b.by_p + terms b.by_o in
  List.iter cell b.to_file;
  List.iter cell b.to_unfile;
  let n = Hashtbl.length b.members in
  (* 9 words of record: header plus 8 fields. *)
  9 + tables
  + table_words (Hashtbl.stats b.members).Hashtbl.num_buckets n
  + (8 * (n + Hashtbl.length dead))
  + (3 * !cells)

(* Invariants (checked by [Check.Invariant.delta]):
   - no triple is in both [inserts] and the base store;
   - [deletes] is a subset of the base store;
   - [inserts] and [deletes] are disjoint (implied by the two above). *)
type t = {
  base : Hexastore.t;
  inserts : buffer;
  deletes : buffer;
  mutable insert_threshold : int;
  mutable delete_threshold : int;
  sync : sync;
}

let default_insert_threshold = 4096
let default_delete_threshold = 1024

let clamp_threshold n = max 1 n

let of_base ?(insert_threshold = default_insert_threshold)
    ?(delete_threshold = default_delete_threshold) base =
  {
    base;
    inserts = buffer_create 64;
    deletes = buffer_create 16;
    insert_threshold = clamp_threshold insert_threshold;
    delete_threshold = clamp_threshold delete_threshold;
    sync = make_sync ();
  }

let with_lock t f = Mutex.protect t.sync.lock f

(* Run [f] with the base frozen for everyone else: blocks new pins,
   waits out existing ones, then lets [f] mutate the shared base. *)
let with_base_frozen t f =
  with_lock t (fun () ->
      while t.sync.flushing do
        Condition.wait t.sync.cond t.sync.lock
      done;
      t.sync.flushing <- true;
      while t.sync.pins > 0 do
        Condition.wait t.sync.cond t.sync.lock
      done;
      Fun.protect
        ~finally:(fun () ->
          t.sync.flushing <- false;
          Condition.broadcast t.sync.cond)
        f)

let create ?dict ?insert_threshold ?delete_threshold () =
  of_base ?insert_threshold ?delete_threshold (Hexastore.create ?dict ())

let base t = t.base
let dict t = Hexastore.dict t.base
let pending_inserts t = buffer_length t.inserts
let pending_deletes t = buffer_length t.deletes
let insert_threshold t = t.insert_threshold
let delete_threshold t = t.delete_threshold

let set_thresholds ?insert ?delete t =
  (match insert with Some n -> t.insert_threshold <- clamp_threshold n | None -> ());
  match delete with Some n -> t.delete_threshold <- clamp_threshold n | None -> ()

let size t = Hexastore.size t.base + buffer_length t.inserts - buffer_length t.deletes

let note_pending t =
  if !Telemetry.Config.enabled then begin
    Telemetry.Metrics.set g_pending_ins (float_of_int (buffer_length t.inserts));
    Telemetry.Metrics.set g_pending_del (float_of_int (buffer_length t.deletes))
  end

(* --- flush ------------------------------------------------------------ *)

(* A batch this large relative to the (post-delete) base triggers a full
   rebuild: the whole merged set is re-loaded into a fresh store through
   [add_bulk_ids]'s pure-append path, O((N + k) log (N + k)), instead of
   k in-place binary insertions each moving O(vector) elements. *)
let rebuild_factor = 8

let drain_pending t =
  let deletes = Hashtbl.fold (fun tr _ acc -> tr :: acc) t.deletes.members [] in
  List.iter (fun tr -> ignore (Hexastore.remove_ids t.base tr)) deletes;
  buffer_reset t.deletes;
  let batch = Array.make (buffer_length t.inserts) { s = 0; p = 0; o = 0 } in
  let i = ref 0 in
  Hashtbl.iter
    (fun tr _ ->
      batch.(!i) <- tr;
      incr i)
    t.inserts.members;
  buffer_reset t.inserts;
  batch

let rebuild_base t batch =
  Telemetry.Metrics.incr m_flush_rebuild;
  let n = Hexastore.size t.base in
  let all = Array.make (n + Array.length batch) { s = 0; p = 0; o = 0 } in
  let i = ref 0 in
  ignore
    (Hexastore.fold
       (fun tr () ->
         all.(!i) <- tr;
         incr i)
       t.base ());
  Array.blit batch 0 all n (Array.length batch);
  let fresh = Hexastore.create ~dict:(Hexastore.dict t.base) ~repr:(Hexastore.repr t.base) () in
  ignore (Hexastore.add_bulk_ids fresh all);
  (* Adopt in place so aliases to the base (e.g. a dataset graph fronted
     by this delta) keep seeing the store's contents. *)
  Hexastore.replace_contents t.base ~from:fresh

let flush_with ?(auto = false) ~force_rebuild t =
  let timed = !Telemetry.Config.enabled in
  let started = if timed then Telemetry.Clock.now () else 0. in
  let pending, rebuild =
    with_base_frozen t (fun () ->
        let pending = buffer_length t.inserts + buffer_length t.deletes in
        Telemetry.Metrics.incr m_flush;
        Telemetry.Metrics.observe m_flush_batch pending;
        let batch = drain_pending t in
        let rebuild =
          force_rebuild || Array.length batch * rebuild_factor >= Hexastore.size t.base
        in
        if rebuild then rebuild_base t batch else ignore (Hexastore.add_bulk_ids t.base batch);
        (pending, rebuild))
  in
  Telemetry.Trace.emit (Telemetry.Trace.Delta_flush { pending; rebuild; auto });
  note_pending t;
  if timed then
    Telemetry.Metrics.observe m_flush_us
      (int_of_float ((Telemetry.Clock.now () -. started) *. 1e6))

let flush t =
  if buffer_length t.inserts > 0 || buffer_length t.deletes > 0 then
    flush_with ~force_rebuild:false t

let compact t =
  Telemetry.Metrics.incr m_compact;
  Telemetry.Trace.emit
    (Telemetry.Trace.Delta_compact
       { pending = buffer_length t.inserts + buffer_length t.deletes });
  flush_with ~force_rebuild:true t

let maybe_auto_flush t =
  if
    buffer_length t.inserts >= t.insert_threshold
    || buffer_length t.deletes >= t.delete_threshold
  then begin
    Telemetry.Metrics.incr m_flush_auto;
    flush_with ~auto:true ~force_rebuild:false t
  end

(* --- mutation --------------------------------------------------------- *)

(* Buffer staging holds [sync.lock] so a concurrent [pin]'s copy never
   observes a half-resized membership table; the auto-flush
   check runs after the lock is released ([flush_with] re-enters the
   sync protocol itself). *)
let add_ids t tr =
  let outcome =
    with_lock t (fun () ->
        if buffer_mem t.inserts tr then `Noop
        else if Hexastore.mem_ids t.base tr then
          if unstage t.deletes tr then begin
            (* Resurrection: cancel the pending tombstone instead of
               buffering an insert the base already holds. *)
            Telemetry.Metrics.incr m_resurrect;
            `Staged
          end
          else `Noop
        else begin
          stage t.inserts tr;
          Telemetry.Metrics.incr m_ins_buf;
          `Buffered
        end)
  in
  (match outcome with
  | `Noop -> ()
  | `Staged -> note_pending t
  | `Buffered ->
      note_pending t;
      maybe_auto_flush t);
  outcome <> `Noop

let remove_ids t tr =
  let outcome =
    with_lock t (fun () ->
        if unstage t.inserts tr then begin
          (* The triple only ever lived in the buffer: dropping the
             buffered insert deletes it without touching the base. *)
          Telemetry.Metrics.incr m_unbuffer;
          `Staged
        end
        else if Hexastore.mem_ids t.base tr && not (buffer_mem t.deletes tr) then begin
          stage t.deletes tr;
          Telemetry.Metrics.incr m_del_buf;
          `Buffered
        end
        else `Noop)
  in
  (match outcome with
  | `Noop -> ()
  | `Staged -> note_pending t
  | `Buffered ->
      note_pending t;
      maybe_auto_flush t);
  outcome <> `Noop

let mem_ids t tr =
  buffer_mem t.inserts tr
  || (Hexastore.mem_ids t.base tr && not (buffer_mem t.deletes tr))

let add_bulk_ids t batch =
  (* Pending deletes must land first so a batch re-inserting a tombstoned
     triple counts it as fresh; then the base's own sort-and-append bulk
     path takes the whole batch at once (with the base frozen, since
     pinned snapshots read it directly). *)
  flush t;
  with_base_frozen t (fun () -> Hexastore.add_bulk_ids t.base batch)

(* --- merged lookup ---------------------------------------------------- *)

(* A pattern's matches agree on its bound positions, so comparing whole
   triples in the serving ordering's significance order ranks them
   exactly as the base scan emits them. *)
let lookup t pat =
  if buffer_length t.inserts = 0 && buffer_length t.deletes = 0 then Hexastore.lookup t.base pat
  else begin
    Telemetry.Metrics.incr m_merged;
    let cmp = Ordering.compare_triples (Ordering.for_shape (Pattern.shape pat)) in
    let base_seq = Hexastore.lookup t.base pat in
    let dels = Array.to_seq (buffer_matching t.deletes cmp pat) in
    let inss = Array.to_seq (buffer_matching t.inserts cmp pat) in
    Merge.union_seq_by ~cmp (Merge.diff_seq_by ~cmp base_seq dels) inss
  end

let count t pat =
  match Pattern.shape pat with
  | Pattern.All ->
      let tr = { s = Option.get pat.s; p = Option.get pat.p; o = Option.get pat.o } in
      if mem_ids t tr then 1 else 0
  | _ -> Hexastore.count t.base pat + buffer_count t.inserts pat - buffer_count t.deletes pat

let fold f t acc = Seq.fold_left (fun acc tr -> f tr acc) acc (lookup t Pattern.wildcard)

(* Merged sorted scans: the base's seekable scan stays the backbone;
   buffered inserts are snapshot-sorted under the serving ordering's
   comparator and merged in, tombstones filtered out (an order-preserving
   filter, so the merged stream stays sorted on the scan position). *)
let scan_sorted t pat pos =
  match Hexastore.scan_sorted t.base pat pos with
  | None -> None
  | Some (ord, base_seek) ->
      if buffer_length t.inserts = 0 && buffer_length t.deletes = 0 then Some (ord, base_seek)
      else begin
        Telemetry.Metrics.incr m_merged;
        let cmp = Ordering.compare_triples ord in
        let value_of (tr : id_triple) =
          match pos with Pattern.Subj -> tr.s | Pattern.Pred -> tr.p | Pattern.Obj -> tr.o
        in
        let ins = buffer_matching t.inserts cmp pat in
        let n_ins = Array.length ins in
        (* Matches agree on the bound positions (a prefix of the serving
           ordering before [pos]), so [cmp] order is [pos]-value order:
           a binary search by scan value finds the merge suffix. *)
        let ins_from k =
          let lo = ref 0 and hi = ref n_ins in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if value_of ins.(mid) < k then lo := mid + 1 else hi := mid
          done;
          let rec aux i () = if i >= n_ins then Seq.Nil else Seq.Cons (ins.(i), aux (i + 1)) in
          aux !lo
        in
        let seek k =
          let base = Seq.filter (fun tr -> not (buffer_mem t.deletes tr)) (base_seek k) in
          Merge.union_seq_by ~cmp base (ins_from k)
        in
        Some (ord, seek)
      end

(* Splitting reuses the base's boundary keys: buffered inserts merge
   into whichever range their scan value lands in, preserving both
   contiguity and per-range sortedness, so concatenating the split still
   reproduces the unsplit merged stream exactly.  (Insert-heavy deltas
   can unbalance the parts; that costs speedup, never correctness.) *)
let scan_bounds t pat pos ~parts = Hexastore.scan_bounds t.base pat pos ~parts

let scan_split t pat pos ~parts =
  match scan_sorted t pat pos with
  | None -> None
  | Some (ord, seek) ->
      Some (ord, Hexastore.split_cursor pos (scan_bounds t pat pos ~parts) seek)

(* --- snapshot pinning -------------------------------------------------- *)

let pin t =
  with_lock t (fun () ->
      while t.sync.flushing do
        Condition.wait t.sync.cond t.sync.lock
      done;
      t.sync.pins <- t.sync.pins + 1;
      let view =
        {
          base = t.base;
          inserts = filed_copy t.inserts;
          deletes = filed_copy t.deletes;
          (* A snapshot is read-only by protocol; max out the thresholds
             so even a misuse can never auto-flush into the shared base. *)
          insert_threshold = max_int;
          delete_threshold = max_int;
          sync = make_sync ();
        }
      in
      let released = ref false in
      let unpin () =
        with_lock t (fun () ->
            if not !released then begin
              released := true;
              t.sync.pins <- t.sync.pins - 1;
              if t.sync.pins = 0 then Condition.broadcast t.sync.cond
            end)
      in
      (view, unpin))

let pins t = t.sync.pins

let iter_pending_inserts f t = Hashtbl.iter (fun tr _ -> f tr) t.inserts.members
let iter_pending_deletes f t = Hashtbl.iter (fun tr _ -> f tr) t.deletes.members

(* --- term-level API --------------------------------------------------- *)

let add t triple = add_ids t (Dict.Term_dict.encode_triple (dict t) triple)

let remove t triple =
  match Dict.Term_dict.find_triple (dict t) triple with
  | None -> false
  | Some ids -> remove_ids t ids

let mem t triple =
  match Dict.Term_dict.find_triple (dict t) triple with
  | None -> false
  | Some ids -> mem_ids t ids

let find t ?s ?p ?o () =
  let d = dict t in
  let resolve = function
    | None -> Some None
    | Some term -> (
        match Dict.Term_dict.find_term d term with None -> None | Some id -> Some (Some id))
  in
  match (resolve s, resolve p, resolve o) with
  | Some s, Some p, Some o ->
      Seq.map (Dict.Term_dict.decode_triple d) (lookup t { Pattern.s; p; o })
  | _ -> Seq.empty

let to_triples t =
  List.of_seq (Seq.map (Dict.Term_dict.decode_triple (dict t)) (lookup t Pattern.wildcard))

(* --- accounting ------------------------------------------------------- *)

(* The delta record (7 words with header) plus both buffers, exactly
   (see [buffer_memory_words]). *)
let memory_words t =
  Hexastore.memory_words t.base + 7 + buffer_memory_words t.inserts
  + buffer_memory_words t.deletes
