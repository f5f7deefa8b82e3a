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
      detail : unit -> string;
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
   overwrites.  Ring storage is allocated on a shard's first record.
   Dumps merge the shards by a global sequence number, reproducing the
   exact order a single buffer would have recorded.

   Span *identity* is not sharded: every span gets a process-unique id
   from a global atomic, and each domain tracks its innermost open span
   in domain-local storage, so an entry's [parent] and [depth] follow
   the dynamic nesting on that domain.  Cross-domain edges — a pool task
   belonging to the query that submitted it — are made explicit by
   passing the submitting span's handle as [?parent]. *)

let shard_count = 8

let default_capacity = 8192

type shard = {
  lock : Mutex.t;
  mutable ring : entry array;  (* [||] until first use; else length = capacity *)
  mutable recorded : int;
}

(* domain-safety: domain-sharded — one ring per domain (domain id mod
   shard_count), each read and written under its own mutex for the
   collision case; dumps merge all shards by seq. *)
let shards = Array.init shard_count (fun _ -> { lock = Mutex.create (); ring = [||]; recorded = 0 })

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

let dummy =
  { seq = -1; at = 0.; dom = 0; id = 0; parent = None; depth = 0; duration = 0.; kind = Span "" }

(* The capacity is re-read under the shard lock, so a ring is always
   sized to the current setting.  The critical section cannot raise, so
   a bare lock/unlock pair is enough — no [Fun.protect] closure on the
   recording path. *)
let record ~at ~id ~parent ~depth ~duration kind =
  let dom = (Domain.self () :> int) in
  let sh = shards.(dom mod shard_count) in
  Mutex.lock sh.lock;
  let cap = Atomic.get capacity_cell in
  if cap > 0 then begin
    if Array.length sh.ring <> cap then begin
      sh.ring <- Array.make cap dummy;
      sh.recorded <- 0
    end;
    let seq = Atomic.fetch_and_add next_seq 1 in
    sh.ring.(sh.recorded mod cap) <- { seq; at; dom; id; parent; depth; duration; kind };
    sh.recorded <- sh.recorded + 1
  end;
  Mutex.unlock sh.lock

(* At capacity 0 an event costs one atomic read: no clock read, no lock. *)
let emit kind =
  if Atomic.get capacity_cell > 0 then begin
    let open_id, depth = Domain.DLS.get current in
    record ~at:(Clock.now ()) ~id:0
      ~parent:(if open_id = 0 then None else Some open_id)
      ~depth ~duration:0. kind
  end

type handle = {
  h_name : string;
  h_start : float;
  h_depth : int;
  h_id : int;
  h_parent : int option;
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
    h_parent = None;
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
      h_parent = (if parent_id = 0 then None else Some parent_id);
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

let retained sh = min sh.recorded (Array.length sh.ring)

let dump () =
  Array.fold_left
    (fun acc sh ->
      locked sh (fun () ->
          let cap = Array.length sh.ring and kept = retained sh in
          let first = sh.recorded - kept in
          List.init kept (fun i -> sh.ring.((first + i) mod cap)))
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
          sh.ring <- [||];
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
  | Plan_choice { patterns; detail } ->
      [ ("label", Json.String (bgp_label patterns)); ("detail", Json.String (detail ())) ]
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
  | Plan_choice { patterns; detail } ->
      Format.fprintf ppf "plan.choice    %s: %s" (bgp_label patterns) (detail ())
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
