type delta = {
  wall_s : float;
  alloc_minor_words : float;
  alloc_major_words : float;
  alloc_words : float;
  counters : (string * int) list; (* non-zero counter deltas, name-sorted *)
}

type kind =
  | Span of string
  | Query_start of {
      op : string;
      patterns : int;
    }
  | Query_end of {
      op : string;
      patterns : int;
      rows : int;
    }
  | Plan_choice of {
      patterns : int;
      steps : int;
    }
  | Delta_flush of {
      pending : int;
      rebuild : bool;
      auto : bool;
      migrate : bool;
    }
  | Delta_compact of { pending : int }
  | Snapshot_save of {
      path : string;
      triples : int;
    }
  | Snapshot_load of {
      path : string;
      triples : int;
    }
  | Slow_query of {
      label : string;
      plan : string;
      delta : delta;
    }
  | Par_fanout of {
      patterns : int;
      planned : int;
      achieved : int;
      width : int;
    }

type entry = {
  seq : int;
  at : float;
  dom : int;
  id : int;
  parent : int option;
  depth : int;
  duration : float;
  kind : kind;
}

(* One ring per domain shard: each domain records into the slot indexed
   by its domain id mod [shard_count], so concurrent recorders on a
   parallel query almost never contend.  Domain ids grow without bound
   across spawns, so two domains *can* share a shard — each shard
   therefore still carries its own mutex, making the shard a contention
   optimisation rather than a correctness assumption.  A ring keeps the
   newest [capacity] entries of its shard; [recorded] counts every entry
   offered since the last clear, so [recorded - retained] are the
   overwrites.  Dumps merge the shards by a global sequence number,
   reproducing the exact order a single buffer would have recorded.

   A ring is columns, allocated on a shard's first record: [stride] ints
   per slot (the entry's header and its kind's tag and int fields),
   two unboxed floats (start and duration), and one name (a span's
   name, a query's root operator, a snapshot's path).  Recording writes
   words into the columns and keeps no block of its own, so an event
   whose payload is immediates and a constant string leaves nothing for
   the minor collector to promote.  Only a [Slow_query] is kept whole,
   in a fourth column.  [dump] rebuilds the entries.

   Span *identity* is not sharded: every span gets a process-unique id
   from a global atomic, and each domain tracks its innermost open span
   in domain-local storage, so an entry's [parent] and [depth] follow
   the dynamic nesting on that domain.  Cross-domain edges — a pool task
   belonging to the query that submitted it — are made explicit by
   passing the submitting span's handle as [?parent]. *)

let shard_count = 8

let default_capacity = 8192

(* The int fields of a slot, at [slot * stride + field]: the entry's
   header (parent 0 = none), then the kind's tag and up to four ints. *)
let f_seq = 0
let f_dom = 1
let f_id = 2
let f_parent = 3
let f_depth = 4
let f_tag = 5
let f_a = 6
let f_b = 7
let f_c = 8
let f_d = 9
let stride = 10

(* The payload column's filler: a [Slow_query] slot is the only one
   that holds a block of its own. *)
let no_payload = Delta_compact { pending = 0 }

type shard = {
  lock : Mutex.t;
  mutable slots : int;  (* 0 until first use; else the capacity the columns hold *)
  mutable ints : int array;  (* [stride] per slot *)
  mutable times : Float.Array.t;  (* [at], [duration] per slot *)
  mutable names : string array;
  mutable payloads : kind array;
  mutable recorded : int;
}

(* domain-safety: domain-sharded — one ring per domain (domain id mod
   shard_count), each read and written under its own mutex for the
   collision case; dumps merge all shards by seq. *)
let shards =
  Array.init shard_count (fun _ ->
      {
        lock = Mutex.create ();
        slots = 0;
        ints = [||];
        times = Float.Array.create 0;
        names = [||];
        payloads = [||];
        recorded = 0;
      })

(* domain-safety: atomic — ring slots per shard, read by every recorder
   and replaced by [set_capacity]; a recorder re-reads it under its
   shard lock before sizing the ring. *)
let capacity_cell = Atomic.make default_capacity

(* domain-safety: atomic — global recording sequence tag, fetched
   lock-free by whichever domain records next; only orders the merged
   dump. *)
let next_seq = Atomic.make 0

(* domain-safety: atomic — process-unique span id source (ids start at
   1; 0 is reserved for "no span"), fetched lock-free by whichever
   domain opens a span next. *)
let next_id = Atomic.make 1

(* The innermost open span on this domain, as [(id, next_depth)]:
   [id = 0] means no span is open and the next one starts at depth
   [next_depth] (0 at the root).  Not a global — each domain has its
   own cell, written only by that domain, so nesting needs no lock. *)
let current = Domain.DLS.new_key (fun () -> (0, 0))

let size_columns sh cap =
  sh.slots <- cap;
  sh.ints <- Array.make (cap * stride) 0;
  sh.times <- Float.Array.make (2 * cap) 0.;
  sh.names <- Array.make cap "";
  sh.payloads <- Array.make cap no_payload;
  sh.recorded <- 0

let bit b k = if b then 1 lsl k else 0

(* A kind into slot [i] (its ints from [b]): the tag, up to four int
   fields and the name.  A field a kind leaves unset keeps an older
   entry's value, which [decode] does not read. *)
let encode sh i b kind =
  let ints = sh.ints in
  if ints.(b + f_tag) = 8 then sh.payloads.(i) <- no_payload;
  match kind with
  | Span name ->
      ints.(b + f_tag) <- 0;
      sh.names.(i) <- name
  | Query_start { op; patterns } ->
      ints.(b + f_tag) <- 1;
      ints.(b + f_a) <- patterns;
      sh.names.(i) <- op
  | Query_end { op; patterns; rows } ->
      ints.(b + f_tag) <- 2;
      ints.(b + f_a) <- patterns;
      ints.(b + f_b) <- rows;
      sh.names.(i) <- op
  | Plan_choice { patterns; steps } ->
      ints.(b + f_tag) <- 3;
      ints.(b + f_a) <- patterns;
      ints.(b + f_b) <- steps
  | Delta_flush { pending; rebuild; auto; migrate } ->
      ints.(b + f_tag) <- 4;
      ints.(b + f_a) <- pending;
      ints.(b + f_b) <- bit rebuild 0 lor bit auto 1 lor bit migrate 2
  | Delta_compact { pending } ->
      ints.(b + f_tag) <- 5;
      ints.(b + f_a) <- pending
  | Snapshot_save { path; triples } ->
      ints.(b + f_tag) <- 6;
      ints.(b + f_a) <- triples;
      sh.names.(i) <- path
  | Snapshot_load { path; triples } ->
      ints.(b + f_tag) <- 7;
      ints.(b + f_a) <- triples;
      sh.names.(i) <- path
  | Slow_query _ ->
      ints.(b + f_tag) <- 8;
      sh.payloads.(i) <- kind
  | Par_fanout { patterns; planned; achieved; width } ->
      ints.(b + f_tag) <- 9;
      ints.(b + f_a) <- patterns;
      ints.(b + f_b) <- planned;
      ints.(b + f_c) <- achieved;
      ints.(b + f_d) <- width

let decode sh i b =
  let ints = sh.ints in
  let get f = ints.(b + f) and name = sh.names.(i) in
  match get f_tag with
  | 0 -> Span name
  | 1 -> Query_start { op = name; patterns = get f_a }
  | 2 -> Query_end { op = name; patterns = get f_a; rows = get f_b }
  | 3 -> Plan_choice { patterns = get f_a; steps = get f_b }
  | 4 ->
      let flags = get f_b in
      let flag k = flags land (1 lsl k) <> 0 in
      Delta_flush { pending = get f_a; rebuild = flag 0; auto = flag 1; migrate = flag 2 }
  | 5 -> Delta_compact { pending = get f_a }
  | 6 -> Snapshot_save { path = name; triples = get f_a }
  | 7 -> Snapshot_load { path = name; triples = get f_a }
  | 8 -> sh.payloads.(i)
  | _ -> Par_fanout { patterns = get f_a; planned = get f_b; achieved = get f_c; width = get f_d }

(* The capacity is re-read under the shard lock, so a ring is always
   sized to the current setting.  The critical section cannot raise, so
   a bare lock/unlock pair is enough — no [Fun.protect] closure on the
   recording path.  [parent] 0 is no parent. *)
let record ~at ~id ~parent ~depth ~duration kind =
  let dom = (Domain.self () :> int) in
  let sh = shards.(dom mod shard_count) in
  Mutex.lock sh.lock;
  let cap = Atomic.get capacity_cell in
  if cap > 0 then begin
    if sh.slots <> cap then size_columns sh cap;
    let i = sh.recorded mod cap in
    let b = i * stride in
    let ints = sh.ints in
    ints.(b + f_seq) <- Atomic.fetch_and_add next_seq 1;
    ints.(b + f_dom) <- dom;
    ints.(b + f_id) <- id;
    ints.(b + f_parent) <- parent;
    ints.(b + f_depth) <- depth;
    Float.Array.set sh.times (2 * i) at;
    Float.Array.set sh.times ((2 * i) + 1) duration;
    encode sh i b kind;
    sh.recorded <- sh.recorded + 1
  end;
  Mutex.unlock sh.lock

(* At capacity 0 an event costs one atomic read: no clock read, no lock. *)
let emit kind =
  if Atomic.get capacity_cell > 0 then begin
    let parent, depth = Domain.DLS.get current in
    record ~at:(Clock.now ()) ~id:0 ~parent ~depth ~duration:0. kind
  end

type handle = {
  h_name : string;
  h_start : float;
  h_depth : int;
  h_id : int;
  h_parent : int;  (* 0: none *)
  h_saved : int * int;  (* this domain's [current] before entry, restored at exit *)
  mutable h_closed : bool;
}

(* Shared no-op handle returned while the gate is off, so a disabled
   [enter_span] allocates nothing. *)
let disabled_handle =
  {
    h_name = "";
    h_start = 0.;
    h_depth = 0;
    h_id = 0;
    h_parent = 0;
    h_saved = (0, 0);
    h_closed = true;
  }

let enter_span ?parent name =
  if not !Config.enabled then disabled_handle
  else begin
    Config.note_activity ();
    let saved = Domain.DLS.get current in
    let parent_id, depth =
      match parent with
      | Some p when p.h_id <> 0 ->
          (* Explicit cross-domain edge: attach under the given handle
             regardless of what is open on this domain. *)
          (p.h_id, p.h_depth + 1)
      | Some _ (* disabled handle: the gate was off at the parent *) | None ->
          saved
    in
    let id = Atomic.fetch_and_add next_id 1 in
    Domain.DLS.set current (id, depth + 1);
    {
      h_name = name;
      h_start = Clock.now ();
      h_depth = depth;
      h_id = id;
      h_parent = parent_id;
      h_saved = saved;
      h_closed = false;
    }
  end

let exit_span h =
  if not h.h_closed then begin
    h.h_closed <- true;
    let duration = Clock.now () -. h.h_start in
    Domain.DLS.set current h.h_saved;
    record ~at:h.h_start ~id:h.h_id ~parent:h.h_parent ~depth:h.h_depth ~duration (Span h.h_name)
  end

let with_span ?parent name f =
  if not !Config.enabled then f ()
  else begin
    let h = enter_span ?parent name in
    Fun.protect ~finally:(fun () -> exit_span h) f
  end

let with_span_h ?parent name f =
  if not !Config.enabled then f disabled_handle
  else begin
    let h = enter_span ?parent name in
    Fun.protect ~finally:(fun () -> exit_span h) (fun () -> f h)
  end

let query_label ~op ~patterns = Printf.sprintf "%s/%dtp" op patterns

(* --- reading the rings -------------------------------------------------- *)

let locked sh f =
  Mutex.lock sh.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.lock) f

let retained sh = min sh.recorded sh.slots

let dump () =
  Array.fold_left
    (fun acc sh ->
      locked sh (fun () ->
          let cap = sh.slots and kept = retained sh in
          let first = sh.recorded - kept in
          List.init kept (fun k ->
              let i = (first + k) mod cap in
              let b = i * stride in
              let get f = sh.ints.(b + f) in
              {
                seq = get f_seq;
                at = Float.Array.get sh.times (2 * i);
                dom = get f_dom;
                id = get f_id;
                parent = (match get f_parent with 0 -> None | p -> Some p);
                depth = get f_depth;
                duration = Float.Array.get sh.times ((2 * i) + 1);
                kind = decode sh i b;
              }))
      :: acc)
    [] shards
  |> List.concat
  |> List.sort (fun a b -> compare (a.seq : int) b.seq)

let is_span e = match e.kind with Span _ -> true | _ -> false

let spans () = List.filter is_span (dump ())

let events () = List.filter (fun e -> not (is_span e)) (dump ())

(* The tallies read each shard without its lock: single-word reads
   cannot tear, and they are exact whenever recorders are quiescent. *)
let recorded () = Array.fold_left (fun acc sh -> acc + sh.recorded) 0 shards

let dropped () = Array.fold_left (fun acc sh -> acc + sh.recorded - retained sh) 0 shards

let capacity () = Atomic.get capacity_cell

let reset_shards () =
  Array.iter
    (fun sh ->
      locked sh (fun () ->
          sh.slots <- 0;
          sh.ints <- [||];
          sh.times <- Float.Array.create 0;
          sh.names <- [||];
          sh.payloads <- [||];
          sh.recorded <- 0))
    shards;
  Atomic.set next_seq 0

let clear () =
  reset_shards ();
  Atomic.set next_id 1;
  Domain.DLS.set current (0, 0)

let set_capacity n =
  Atomic.set capacity_cell (max 0 n);
  reset_shards ()

(* --- rendering ---------------------------------------------------------- *)

let kind_name = function
  | Span _ -> "span"
  | Query_start _ -> "query.start"
  | Query_end _ -> "query.end"
  | Plan_choice _ -> "plan.choice"
  | Delta_flush _ -> "delta.flush"
  | Delta_compact _ -> "delta.compact"
  | Snapshot_save _ -> "snapshot.save"
  | Snapshot_load _ -> "snapshot.load"
  | Slow_query _ -> "query.slow"
  | Par_fanout _ -> "par.fanout"

let name e = match e.kind with Span n -> n | k -> kind_name k

let bgp_label patterns = Printf.sprintf "bgp(%d)" patterns

let step_names = [| "scan"; "nested-loop"; "merge"; "hash" |]

let max_plan_steps = 31

let plan_detail ~patterns ~steps =
  let shown = List.init (min patterns max_plan_steps) (fun i -> step_names.((steps lsr (2 * i)) land 3)) in
  String.concat ";" (if patterns > max_plan_steps then shown @ [ "..." ] else shown)

let delta_to_json d =
  Json.Obj
    [
      ("wall_s", Json.Float d.wall_s);
      ("alloc_minor_words", Json.Float d.alloc_minor_words);
      ("alloc_major_words", Json.Float d.alloc_major_words);
      ("alloc_words", Json.Float d.alloc_words);
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) d.counters));
    ]

let kind_fields = function
  | Span name -> [ ("name", Json.String name) ]
  | Query_start { op; patterns } -> [ ("label", Json.String (query_label ~op ~patterns)) ]
  | Query_end { op; patterns; rows } ->
      [ ("label", Json.String (query_label ~op ~patterns)); ("rows", Json.Int rows) ]
  | Plan_choice { patterns; steps } ->
      [ ("label", Json.String (bgp_label patterns)); ("detail", Json.String (plan_detail ~patterns ~steps)) ]
  | Delta_flush { pending; rebuild; auto; migrate } ->
      [ ("pending", Json.Int pending); ("rebuild", Json.Bool rebuild); ("auto", Json.Bool auto);
        ("migrate", Json.Bool migrate) ]
  | Delta_compact { pending } -> [ ("pending", Json.Int pending) ]
  | Snapshot_save { path; triples } | Snapshot_load { path; triples } ->
      [ ("path", Json.String path); ("triples", Json.Int triples) ]
  | Slow_query { label; plan; delta } ->
      [
        ("label", Json.String label);
        ("wall_s", Json.Float delta.wall_s);
        ("plan", Json.String plan);
        ("profile", delta_to_json delta);
      ]
  | Par_fanout { patterns; planned; achieved; width } ->
      [
        ("label", Json.String (bgp_label patterns));
        ("planned", Json.Int planned);
        ("achieved", Json.Int achieved);
        ("width", Json.Int width);
      ]

let entry_to_json e =
  Json.Obj
    ([
       ("seq", Json.Int e.seq);
       ("at", Json.Float e.at);
       ("dom", Json.Int e.dom);
       ("kind", Json.String (kind_name e.kind));
       ("id", Json.Int e.id);
     ]
    @ (match e.parent with None -> [] | Some p -> [ ("parent", Json.Int p) ])
    @ [ ("depth", Json.Int e.depth); ("duration_s", Json.Float e.duration) ]
    @ kind_fields e.kind)

let to_json () =
  Json.Obj
    [
      ("capacity", Json.Int (capacity ()));
      ("recorded", Json.Int (recorded ()));
      ("dropped", Json.Int (dropped ()));
      ("events", Json.List (List.map entry_to_json (dump ())));
    ]

(* Print a multi-line string verbatim inside a @[<v>] box (pp_print_text
   would reflow the plan tree's indentation away). *)
let pp_block ppf s =
  let lines = String.split_on_char '\n' s in
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_cut ppf ())
    Format.pp_print_string ppf lines

let pp_kind ppf e =
  match e.kind with
  | Span name -> Format.fprintf ppf "span           %-40s %.6fs" name e.duration
  | Query_start { op; patterns } ->
      Format.fprintf ppf "query.start    %s" (query_label ~op ~patterns)
  | Query_end { op; patterns; rows } ->
      Format.fprintf ppf "query.end      %s rows=%d" (query_label ~op ~patterns) rows
  | Plan_choice { patterns; steps } ->
      Format.fprintf ppf "plan.choice    %s: %s" (bgp_label patterns) (plan_detail ~patterns ~steps)
  | Delta_flush { pending; rebuild; auto; migrate } ->
      Format.fprintf ppf "delta.flush    pending=%d rebuild=%b auto=%b migrate=%b" pending rebuild
        auto migrate
  | Delta_compact { pending } -> Format.fprintf ppf "delta.compact  pending=%d" pending
  | Snapshot_save { path; triples } ->
      Format.fprintf ppf "snapshot.save  %s triples=%d" path triples
  | Snapshot_load { path; triples } ->
      Format.fprintf ppf "snapshot.load  %s triples=%d" path triples
  | Slow_query { label; plan; delta } ->
      Format.fprintf ppf "query.slow     %s wall=%.3fms@,  @[<v>%a@]" label
        (delta.wall_s *. 1e3) pp_block plan
  | Par_fanout { patterns; planned; achieved; width } ->
      Format.fprintf ppf "par.fanout     %s planned=%d achieved=%d width=%d" (bgp_label patterns)
        planned achieved width

let pp ppf () =
  Format.fprintf ppf "@[<v>";
  (match dump () with
  | [] -> Format.fprintf ppf "(no entries)@,"
  | first :: _ as entries ->
      List.iter
        (fun e ->
          Format.fprintf ppf "[%8.6f] #%-5d d%-3d %s%a@," (e.at -. first.at) e.seq e.dom
            (String.make (2 * e.depth) ' ')
            pp_kind e)
        entries);
  if dropped () > 0 then Format.fprintf ppf "(%d entries dropped)@," (dropped ());
  Format.fprintf ppf "@]"
