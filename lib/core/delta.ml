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
let m_flush_rebuild = Telemetry.Metrics.counter "hexastore.delta.flush.rebuild" (* compactions *)
let m_compact = Telemetry.Metrics.counter "hexastore.delta.compact.calls"
let m_merged = Telemetry.Metrics.counter "hexastore.delta.lookup.merged"
let g_pending_ins = Telemetry.Metrics.gauge "hexastore.delta.pending_inserts"
let g_pending_del = Telemetry.Metrics.gauge "hexastore.delta.pending_deletes"
let g_level = Telemetry.Metrics.gauge "hexastore.delta.level_triples"
let m_flush_us = Telemetry.Metrics.histogram "hexastore.delta.flush_duration_us"
let m_flush_batch = Telemetry.Metrics.histogram "hexastore.delta.flush_batch"

(* Concurrency protocol (see DESIGN.md §13): one writer stages into the
   buffers and flushes; readers on other domains never touch the live
   buffers — they [pin] a snapshot (the shared base and level + private
   buffer copies) and release it when done.  [sync] backs that
   handshake: buffer mutation, the level swap and the pin's copy all
   hold [lock], and a migration (which mutates the shared base the
   snapshots still read) waits under [cond] until every pin is released,
   while new pins wait out an in-progress migration.  A merge into the
   level builds a new level and never waits. *)
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

(* Matching entries, copied and sorted at call time so a merge never
   reads the mutable buffer. *)
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

(* --- the sorted level ---------------------------------------------------- *)

(* One set of triples sorted in one ordering: a flat array of (s, p, o)
   triplets, entry [i] at [3i], [3i + 1] and [3i + 2]. *)
type run = int array

(* The level between the pending buffers and the base: [ins] holds
   triples the base lacks, [del] tombstones for triples it holds.  A
   level is never mutated — a merge builds the next one — so a pinned
   view keeps the level it was made with by reference. *)
type level = {
  ins : sets;
  del : sets;
}

(* One set of the level: sorted in spo, which membership tests read, and
   in each other ordering a read has served from (see [run_in]).  A slot
   is filled by the first domain to read it — pinned views share the
   level — so it is atomic; every merge carries the filled ones forward. *)
and sets =
  | No_sets
  | Sets of {
      spo : run;
      others : run option Atomic.t array;  (* indexed by [slot] *)
    }

let other_orderings = [| Ordering.Sop; Ordering.Pso; Ordering.Pos; Ordering.Osp; Ordering.Ops |]

let slot = function
  | Ordering.Sop -> 0
  | Ordering.Pso -> 1
  | Ordering.Pos -> 2
  | Ordering.Osp -> 3
  | Ordering.Ops -> 4
  | Ordering.Spo ->
      (* spo is the set's own run, never a slot. *)
      assert false

let empty_level = { ins = No_sets; del = No_sets }
let spo_run = function No_sets -> [||] | Sets s -> s.spo
let run_length (r : run) = Array.length r / 3
let level_triples l = run_length (spo_run l.ins) + run_length (spo_run l.del)

let[@inline] lex a1 b1 c1 a2 b2 c2 =
  if a1 <> a2 then Int.compare a1 a2 else if b1 <> b2 then Int.compare b1 b2 else Int.compare c1 c2

(* [(s1, p1, o1)] against [(s2, p2, o2)] in [ord]'s significance order. *)
let compare_in ord s1 p1 o1 s2 p2 o2 =
  match ord with
  | Ordering.Spo -> lex s1 p1 o1 s2 p2 o2
  | Ordering.Sop -> lex s1 o1 p1 s2 o2 p2
  | Ordering.Pso -> lex p1 s1 o1 p2 s2 o2
  | Ordering.Pos -> lex p1 o1 s1 p2 o2 s2
  | Ordering.Osp -> lex o1 s1 p1 o2 s2 p2
  | Ordering.Ops -> lex o1 p1 s1 o2 p2 s2

let compare_at ord (r : run) i s p o =
  let j = 3 * i in
  compare_in ord r.(j) r.(j + 1) r.(j + 2) s p o

(* First entry of [r] in [lo, hi) not below [(s, p, o)] — or, with
   [~past:true], above it. *)
let search ?(past = false) ord r ~lo ~hi s p o =
  let bar = if past then 0 else -1 in
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if compare_at ord r mid s p o <= bar then lo := mid + 1 else hi := mid
  done;
  !lo

let run_mem ord r { s; p; o } =
  let n = run_length r in
  let i = search ord r ~lo:0 ~hi:n s p o in
  i < n && compare_at ord r i s p o = 0

let triples_of (r : run) =
  Array.init (run_length r) (fun i -> { s = r.(3 * i); p = r.((3 * i) + 1); o = r.((3 * i) + 2) })

let run_of (a : id_triple array) : run =
  let r = Array.make (3 * Array.length a) 0 in
  Array.iteri
    (fun i tr ->
      r.(3 * i) <- tr.s;
      r.((3 * i) + 1) <- tr.p;
      r.((3 * i) + 2) <- tr.o)
    a;
  r

(* [sets] sorted in [ord]: a slot not filled yet is filled by one sort
   of the spo run — once per set, since merges carry it forward. *)
let run_in sets ord =
  match sets with
  | No_sets -> [||]
  | Sets s when ord = Ordering.Spo -> s.spo
  | Sets s -> (
      let cell = s.others.(slot ord) in
      match Atomic.get cell with
      | Some r -> r
      | None ->
          let r = run_of (Ordering.sort_triples ord (triples_of s.spo)) in
          if Atomic.compare_and_set cell None (Some r) then r
          else Option.value (Atomic.get cell) ~default:r)

(* [(r − sub) ∪ add], all three sorted in [ord]: [sub] is a subset of
   [r] and [add] is disjoint from it, so one pass writes the result at
   its exact size. *)
let apply ord (r : run) ~(add : id_triple array) ~(sub : id_triple array) =
  let n = run_length r and na = Array.length add and nd = Array.length sub in
  if na = 0 && nd = 0 then r
  else begin
    let out = Array.make (3 * (n + na - nd)) 0 in
    let w = ref 0 and i = ref 0 and j = ref 0 and k = ref 0 in
    let put s p o =
      out.(!w) <- s;
      out.(!w + 1) <- p;
      out.(!w + 2) <- o;
      w := !w + 3
    in
    while !i < n || !j < na do
      if !j < na && (!i >= n || compare_at ord r !i add.(!j).s add.(!j).p add.(!j).o > 0) then begin
        put add.(!j).s add.(!j).p add.(!j).o;
        incr j
      end
      else begin
        let b = 3 * !i in
        let s = r.(b) and p = r.(b + 1) and o = r.(b + 2) in
        incr i;
        if !k < nd && sub.(!k).s = s && sub.(!k).p = p && sub.(!k).o = o then incr k else put s p o
      end
    done;
    out
  end

(* --- merge cursors ------------------------------------------------------ *)

(* A forward cursor over the entries [i, hi) of a run. *)
type cursor = {
  run : run;
  mutable i : int;
  hi : int;
}

(* Read only: every loop checks [i < hi] before it moves [i]. *)
let no_cursor = { run = [||]; i = 0; hi = 0 }

(* The entries of [r] in [lo, hi) from the key [(s1, p1, o1)] up to the
   key [(s2, p2, o2)] of [ord], both inclusive. *)
let between ord r ~lo ~hi s1 p1 o1 s2 p2 o2 =
  if lo >= hi then no_cursor
  else begin
    let lo = search ord r ~lo ~hi s1 p1 o1 in
    let hi = search ~past:true ord r ~lo ~hi s2 p2 o2 in
    if lo >= hi then no_cursor else { run = r; i = lo; hi }
  end

let low = function Some v -> v | None -> -1
let high = function Some v -> v | None -> max_int

(* The entries of [r] that match [pat], whose bound positions lead
   [ord]: from the key with every free position below all ids to the key
   with every free position above them. *)
let cursor ord r (pat : Pattern.t) =
  between ord r ~lo:0 ~hi:(run_length r) (low pat.s) (low pat.p) (low pat.o) (high pat.s)
    (high pat.p) (high pat.o)

(* A pending buffer's matches, sorted in [ord].  Files the buffer's logs
   first: the live delta's writer only. *)
let pending_cursor b ord pat =
  if buffer_length b = 0 then no_cursor
  else
    let r = run_of (buffer_matching b (Ordering.compare_triples ord) pat) in
    if Array.length r = 0 then no_cursor else { run = r; i = 0; hi = run_length r }

(* The four sources merged into the base's matches: level inserts and
   tombstones, pending inserts and tombstones. *)
type sources = {
  ins : cursor;
  del : cursor;
  pins : cursor;
  pdel : cursor;
}

let[@inline] ahead ord c s p o = c.i < c.hi && compare_at ord c.run c.i s p o < 0

(* Moves [c] to the first entry not below [(s, p, o)]; [true] if that
   entry is [(s, p, o)]. *)
let hits ord c s p o =
  while ahead ord c s p o do
    c.i <- c.i + 1
  done;
  c.i < c.hi && compare_at ord c.run c.i s p o = 0

(* One pass over the base's matches in [ord] with the level's and the
   pending inserts merged in and the tombstones left out.  Every source
   ascends in [ord], so each cursor only moves forward.  A base triple
   may be tombstoned by the level or the buffer, a level insert only by
   the buffer; a pending insert is never tombstoned, and it is the one
   insert that can equal a base triple (one the level tombstoned). *)
let push_merge ord base src f =
  let spent c = c.i >= c.hi in
  if spent src.ins && spent src.del && spent src.pins && spent src.pdel then base f
  else begin
    let rec inserts_below s p o =
      let a = ahead ord src.ins s p o and b = ahead ord src.pins s p o in
      if a || b then begin
        let from_level =
          a
          && ((not b)
             ||
             let j = 3 * src.pins.i in
             compare_at ord src.ins.run src.ins.i src.pins.run.(j) src.pins.run.(j + 1)
               src.pins.run.(j + 2)
             < 0)
        in
        let c = if from_level then src.ins else src.pins in
        let j = 3 * c.i in
        let s' = c.run.(j) and p' = c.run.(j + 1) and o' = c.run.(j + 2) in
        c.i <- c.i + 1;
        if not (from_level && hits ord src.pdel s' p' o') then f s' p' o';
        inserts_below s p o
      end
    in
    base (fun s p o ->
        inserts_below s p o;
        if not (hits ord src.del s p o || hits ord src.pdel s p o) then f s p o);
    inserts_below max_int max_int max_int
  end

(* Invariants (checked by [Check.Invariant.delta]):
   - the level's inserts are not in the base, its tombstones are;
   - no pending insert is visible in base ∪ level (a pending insert of a
     level-tombstoned triple resurrects it);
   - every pending tombstone is visible in base ∪ level;
   - the two buffers are disjoint (implied by the two above). *)
type t = {
  base : Hexastore.t;
  mutable level : level;
  inserts : buffer;
  deletes : buffer;
  mutable insert_threshold : int;
  mutable delete_threshold : int;
  sync : sync;
}

let default_insert_threshold = 4096
let default_delete_threshold = 1024

(* An auto-flush migrates the level into the base once the level would
   hold more than an eighth of the base's triples.  An in-place bulk
   flush of N/8 staged triples into LUBM 10×4 took 143–149 ms, against
   25 ms at N/64 (DESIGN.md §9): below an eighth the level stays cheap
   to merge and to read, and one migration replaces many base flushes. *)
let level_fraction = 8

let clamp_threshold n = max 1 n

let of_base ?(insert_threshold = default_insert_threshold)
    ?(delete_threshold = default_delete_threshold) base =
  {
    base;
    level = empty_level;
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
let level_size t = level_triples t.level
let level_run t ~tombstones ord = run_in (if tombstones then t.level.del else t.level.ins) ord
let insert_threshold t = t.insert_threshold
let delete_threshold t = t.delete_threshold

let set_thresholds ?insert ?delete t =
  (match insert with Some n -> t.insert_threshold <- clamp_threshold n | None -> ());
  match delete with Some n -> t.delete_threshold <- clamp_threshold n | None -> ()

let size t =
  Hexastore.size t.base + run_length (spo_run t.level.ins) - run_length (spo_run t.level.del)
  + buffer_length t.inserts - buffer_length t.deletes

(* Nothing staged and nothing in the level: the base is the view. *)
let quiet t =
  buffer_length t.inserts = 0 && buffer_length t.deletes = 0 && t.level == empty_level

let note_pending t =
  if !Telemetry.Config.enabled then begin
    Telemetry.Metrics.set g_pending_ins (float_of_int (buffer_length t.inserts));
    Telemetry.Metrics.set g_pending_del (float_of_int (buffer_length t.deletes));
    Telemetry.Metrics.set g_level (float_of_int (level_size t))
  end

(* In base ∪ level, before the buffers. *)
let settled t tr =
  run_mem Ordering.Spo (spo_run t.level.ins) tr
  || (Hexastore.mem_ids t.base tr && not (run_mem Ordering.Spo (spo_run t.level.del) tr))

(* --- flush ------------------------------------------------------------ *)

let buffer_triples b =
  let a = Array.make (buffer_length b) { s = 0; p = 0; o = 0 } in
  ignore
    (Hashtbl.fold
       (fun tr _ i ->
         a.(i) <- tr;
         i + 1)
       b.members 0);
  a

(* Every flush first folds the buffers into the next level.  A pending
   insert either cancels a level tombstone or joins the level's inserts;
   a pending tombstone either cancels a level insert or joins its
   tombstones.  Each ordering of the next level is one pass over the
   current one with the sorted batch merged in.  The level then stays in
   front of the base, untouched by the flush, unless [migrate] is asked
   for or the level outgrows [1 / level_fraction] of the base: then
   (only then) the base is frozen and takes the level's tombstones and
   inserts in one rebuild ([Hexastore.apply_bulk_ids]), for {!flush}
   and {!compact} alike. *)
let flush_with ?(auto = false) ~migrate ~rebuild t =
  let timed = !Telemetry.Config.enabled in
  let started = if timed then Telemetry.Clock.now () else 0. in
  let pending = buffer_length t.inserts + buffer_length t.deletes in
  Telemetry.Metrics.incr m_flush;
  Telemetry.Metrics.observe m_flush_batch pending;
  let l = t.level in
  (* Both buffers sorted in spo, each split by one pass along the spo
     run of the level set it can cancel. *)
  let split b (sets : sets) =
    let a = Ordering.sort_triples Ordering.Spo (buffer_triples b) in
    match sets with
    | No_sets -> (a, [||])
    | Sets { spo; _ } ->
        let c = { run = spo; i = 0; hi = run_length spo } in
        let hit = Array.map (fun (tr : id_triple) -> hits Ordering.Spo c tr.s tr.p tr.o) a in
        let pick want =
          let out = ref [] in
          for j = Array.length a - 1 downto 0 do
            if hit.(j) = want then out := a.(j) :: !out
          done;
          Array.of_list !out
        in
        (pick false, pick true)
  in
  let ins_add, del_sub = split t.inserts l.del in
  let del_add, ins_sub = split t.deletes l.ins in
  let next_size =
    level_triples l + Array.length ins_add - Array.length ins_sub + Array.length del_add
    - Array.length del_sub
  in
  let migrate = migrate || next_size * level_fraction > Hexastore.size t.base in
  let step ord r ~add ~sub =
    apply ord r ~add:(Ordering.resort ~from:Ordering.Spo ord add)
      ~sub:(Ordering.resort ~from:Ordering.Spo ord sub)
  in
  if migrate then begin
    let ins = triples_of (step Ordering.Spo (spo_run l.ins) ~add:ins_add ~sub:ins_sub) in
    let del = triples_of (step Ordering.Spo (spo_run l.del) ~add:del_add ~sub:del_sub) in
    with_base_frozen t (fun () ->
        t.level <- empty_level;
        buffer_reset t.inserts;
        buffer_reset t.deletes;
        if rebuild then Telemetry.Metrics.incr m_flush_rebuild;
        ignore (Hexastore.apply_bulk_ids t.base ~add:ins ~remove:del))
  end
  else begin
    (* Each filled ordering of a set is one pass over it with the batch,
       sorted in that ordering, merged in. *)
    let next sets ~add ~sub =
      if Array.length add = 0 && Array.length sub = 0 then sets
      else
        let spo = step Ordering.Spo (spo_run sets) ~add ~sub in
        if Array.length spo = 0 then No_sets
        else
          let carried ord =
            match sets with
            | No_sets -> None
            | Sets s -> Option.map (step ord ~add ~sub) (Atomic.get s.others.(slot ord))
          in
          Sets { spo; others = Array.map (fun ord -> Atomic.make (carried ord)) other_orderings }
    in
    let next =
      if next_size = 0 then empty_level
      else { ins = next l.ins ~add:ins_add ~sub:ins_sub; del = next l.del ~add:del_add ~sub:del_sub }
    in
    (* Pins copy the buffers under the lock: swap the level and empty
       the buffers in one step. *)
    with_lock t (fun () ->
        t.level <- next;
        buffer_reset t.inserts;
        buffer_reset t.deletes)
  end;
  Telemetry.Trace.emit (Telemetry.Trace.Delta_flush { pending; rebuild; auto; migrate });
  note_pending t;
  if timed then
    Telemetry.Metrics.observe m_flush_us
      (int_of_float ((Telemetry.Clock.now () -. started) *. 1e6))

let flush t = if not (quiet t) then flush_with ~migrate:true ~rebuild:false t

let compact t =
  Telemetry.Metrics.incr m_compact;
  Telemetry.Trace.emit
    (Telemetry.Trace.Delta_compact
       { pending = buffer_length t.inserts + buffer_length t.deletes });
  flush_with ~migrate:true ~rebuild:true t

let maybe_auto_flush t =
  if
    buffer_length t.inserts >= t.insert_threshold
    || buffer_length t.deletes >= t.delete_threshold
  then begin
    Telemetry.Metrics.incr m_flush_auto;
    flush_with ~auto:true ~migrate:false ~rebuild:false t
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
        else if settled t tr then
          if unstage t.deletes tr then begin
            (* Resurrection: cancel the pending tombstone instead of
               buffering an insert base ∪ level already holds. *)
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
             buffered insert deletes it without touching the level. *)
          Telemetry.Metrics.incr m_unbuffer;
          `Staged
        end
        else if settled t tr && not (buffer_mem t.deletes tr) then begin
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
  buffer_mem t.inserts tr || (settled t tr && not (buffer_mem t.deletes tr))

let add_bulk_ids t batch =
  (* Pending deletes must land first so a batch re-inserting a tombstoned
     triple counts it as fresh; then the base's own sort-and-append bulk
     path takes the whole batch at once (with the base frozen, since
     pinned snapshots read it directly). *)
  flush t;
  with_base_frozen t (fun () -> Hexastore.add_bulk_ids t.base batch)

(* --- merged reads ------------------------------------------------------ *)

let sources t ord pat =
  {
    ins = cursor ord (run_in t.level.ins ord) pat;
    del = cursor ord (run_in t.level.del ord) pat;
    pins = pending_cursor t.inserts ord pat;
    pdel = pending_cursor t.deletes ord pat;
  }

(* A pattern's matches agree on its bound positions, which lead the
   serving ordering, so every source ranks its matches exactly as the
   base's scan of that ordering emits them. *)
let iter t pat f =
  if quiet t then Hexastore.iter t.base pat f
  else begin
    Telemetry.Metrics.incr m_merged;
    let ord = Ordering.for_shape (Pattern.shape pat) in
    push_merge ord (Hexastore.iter t.base pat) (sources t ord pat) f
  end

let count t pat =
  match Pattern.shape pat with
  | Pattern.All ->
      let tr = { s = Option.get pat.s; p = Option.get pat.p; o = Option.get pat.o } in
      if mem_ids t tr then 1 else 0
  | shape ->
      let n = Hexastore.count t.base pat + buffer_count t.inserts pat - buffer_count t.deletes pat in
      if t.level == empty_level then n
      else
        let ord = Ordering.for_shape shape in
        let length c = c.hi - c.i in
        n + length (cursor ord (run_in t.level.ins ord) pat)
        - length (cursor ord (run_in t.level.del ord) pat)

let fold f t acc =
  let acc = ref acc in
  iter t Pattern.wildcard (fun s p o -> acc := f { s; p; o } !acc);
  !acc

(* The base's range cursor with each run's slice of the four sources
   merged in: the sources' ranges for the pattern are found at the first
   run (the planner asks for cursors it never runs), and each run
   narrows them to its key range by binary search, since the scan
   position follows the bound ones in the serving ordering. *)
let seek_sorted t (pat : Pattern.t) pos =
  match Hexastore.seek_sorted t.base pat pos with
  | None -> None
  | Some _ as plain when quiet t -> plain
  | Some (ord, run) ->
      let found = ref None in
      (* A run's lowest and highest keys: [pos] at the range's ends, the
         other free positions below and above all ids. *)
      let key at v q = if q = pos then v else at (Pattern.value_at pat q) in
      let probe lo hi f =
        let src =
          match !found with
          | Some src -> src
          | None ->
              Telemetry.Metrics.incr m_merged;
              let src = sources t ord pat in
              found := Some src;
              src
        in
        if lo < hi then begin
          let s1 = key low lo Pattern.Subj and p1 = key low lo Pattern.Pred
          and o1 = key low lo Pattern.Obj in
          let s2 = key high (hi - 1) Pattern.Subj and p2 = key high (hi - 1) Pattern.Pred
          and o2 = key high (hi - 1) Pattern.Obj in
          let slice c = between ord c.run ~lo:c.i ~hi:c.hi s1 p1 o1 s2 p2 o2 in
          push_merge ord (run lo hi)
            { ins = slice src.ins; del = slice src.del; pins = slice src.pins; pdel = slice src.pdel }
            f
        end
      in
      Some (ord, probe)

(* The base's boundary keys: level and pending inserts fall into
   whichever range their scan value lands in, so the ranges stay
   contiguous and sorted.  (Insert-heavy deltas can unbalance the parts;
   that costs speedup, never correctness.) *)
let scan_bounds t pat pos ~parts = Hexastore.scan_bounds t.base pat pos ~parts

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
          level = t.level;
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

let find t = Hexastore.find_via (dict t) (iter t)

let to_triples t = List.rev (fold (fun tr acc -> Dict.Term_dict.decode_triple (dict t) tr :: acc) t [])

(* --- accounting ------------------------------------------------------- *)

(* A level is its record (3 words) and its two sets.  A non-empty set is
   its block (3 words), its spo run (a header plus three words per
   triple), its five slots (a 6-word array and a 2-word atomic each) and
   each filled slot's option (2 words) and run. *)
let level_memory_words (l : level) =
  let run_words r = Array.length r + 1 in
  let sets_words = function
    | No_sets -> 0
    | Sets s ->
        Array.fold_left
          (fun acc cell ->
            acc + 2 + match Atomic.get cell with Some r -> 2 + run_words r | None -> 0)
          (3 + run_words s.spo + 6) s.others
  in
  3 + sets_words l.ins + sets_words l.del

(* The delta record (8 words with header), the level and both buffers,
   exactly (see [buffer_memory_words]). *)
let memory_words t =
  Hexastore.memory_words t.base + 8 + level_memory_words t.level + buffer_memory_words t.inserts
  + buffer_memory_words t.deletes
