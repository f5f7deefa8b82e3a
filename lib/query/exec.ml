(* Telemetry: per-operator produced-row counters, spans around the
   blocking materialisations and the top-level entry points.  All hooks
   vanish to a flag read while telemetry is off. *)
let m_rows_scan = Telemetry.Metrics.counter "query.rows.scan"
let m_rows_bgp = Telemetry.Metrics.counter "query.rows.bgp"
let m_rows_join = Telemetry.Metrics.counter "query.rows.join"
let m_rows_left_join = Telemetry.Metrics.counter "query.rows.left_join"
let m_rows_union = Telemetry.Metrics.counter "query.rows.union"
let m_rows_values = Telemetry.Metrics.counter "query.rows.values"
let m_rows_filter = Telemetry.Metrics.counter "query.rows.filter"
let m_rows_distinct = Telemetry.Metrics.counter "query.rows.distinct"
let m_rows_project = Telemetry.Metrics.counter "query.rows.project"
let m_rows_group = Telemetry.Metrics.counter "query.rows.group"
let m_rows_order = Telemetry.Metrics.counter "query.rows.order_by"
let m_rows_slice = Telemetry.Metrics.counter "query.rows.slice"

(* Join-strategy counters: one bump per BGP step executed under each
   strategy (at pipeline construction, so EXPLAIN-only planning does not
   count). *)
let m_join_merge = Telemetry.Metrics.counter "query.join.merge"
let m_join_hash = Telemetry.Metrics.counter "query.join.hash"
let m_join_nested = Telemetry.Metrics.counter "query.join.nested"

(* A row consumer.  Every operator pushes rows into the next one's sink;
   a sink may write the row's unbound slots, but must restore them
   before it returns, and must copy a row it keeps. *)
type sink = int array -> unit

let unbound = Binding.unbound

let counted c (k : sink) : sink =
  if !Telemetry.Config.enabled then fun row ->
    Telemetry.Metrics.incr c;
    k row
  else k

(* --- value order ---------------------------------------------------------- *)

(* The sort key of one cell: unbound first, then numbers (aggregate
   integers and numeric literals) by value, then other terms by their
   N-Triples spelling, read from the dictionary as stored. *)
type key =
  | Unbound
  | Number of float
  | Spelling of string

let key_of dict x =
  if x = unbound then Unbound
  else if x < 0 then Number (float_of_int (-2 - x))
  else if x >= Dict.Term_dict.size dict then Spelling (Binding.value_to_string dict (Binding.Id x))
  else
    let s = Dict.Term_dict.spelling dict x in
    match Compile.numeric_spelling s with Some f -> Number f | None -> Spelling s

let compare_keys a b =
  match (a, b) with
  | Unbound, Unbound -> 0
  | Unbound, _ -> -1
  | _, Unbound -> 1
  | Number x, Number y -> Float.compare x y
  | Number _, Spelling _ -> -1
  | Spelling _, Number _ -> 1
  | Spelling x, Spelling y -> String.compare x y

(* --- filters -------------------------------------------------------------- *)

exception Filter_error
(* SPARQL's "error" outcome: the row is dropped. *)

(* An operand's cell, or [unbound] for a numeric constant the
   dictionary does not hold. *)
let cell row = function
  | Compile.Var s ->
      let x = row.(s) in
      if x = unbound then raise Filter_error else x
  | Compile.Const id -> id
  | Compile.Num _ -> unbound
  | Compile.Invalid -> raise Filter_error

let operand_key dict o x = match o with Compile.Num f -> Number f | _ -> key_of dict x

let compare_operands dict row a b =
  let x = cell row a in
  let y = cell row b in
  (* One term is equal to itself whatever its spelling: skip decoding. *)
  if x = y && x <> unbound then 0
  else compare_keys (operand_key dict a x) (operand_key dict b y)

let rec holds dict row = function
  | Compile.Error -> raise Filter_error
  | Compile.Bound s -> row.(s) <> unbound
  | Compile.Not e -> not (holds dict row e)
  | Compile.And (a, b) -> holds dict row a && holds dict row b
  | Compile.Or (a, b) -> holds dict row a || holds dict row b
  | Compile.Cmp (op, a, b) -> (
      let c = compare_operands dict row a b in
      match op with
      | Compile.Eq -> c = 0
      | Neq -> c <> 0
      | Lt -> c < 0
      | Le -> c <= 0
      | Gt -> c > 0
      | Ge -> c >= 0)

let passes dict row e = match holds dict row e with ok -> ok | exception Filter_error -> false

(* --- BGP steps -------------------------------------------------------------- *)

(* What one pattern position does with a matched triple's value,
   decided once per step: [>= 0] writes that slot, [-1] ignores the
   value (a constant, or a slot the lookup already bound), [<= -2]
   checks it against slot [-2 - a] (a variable repeated in the
   pattern). *)
let actions (ctp : Compile.tp) bound =
  let seen = ref [] in
  let act = function
    | Compile.Id _ | Compile.Absent -> -1
    | Compile.Slot i ->
        if List.mem i !seen then -2 - i
        else begin
          seen := i :: !seen;
          if List.mem i bound then -1 else i
        end
  in
  let a_s = act ctp.s in
  let a_p = act ctp.p in
  let a_o = act ctp.o in
  (a_s, a_p, a_o)

let[@inline] apply row a v =
  if a >= 0 then begin
    row.(a) <- v;
    true
  end
  else a = -1 || row.(-2 - a) = v

let[@inline] bind row (a_s, a_p, a_o) s p o = apply row a_s s && apply row a_p p && apply row a_o o

let[@inline] bind_triple row acts (tr : Dict.Term_dict.id_triple) = bind row acts tr.s tr.p tr.o

let no_rows : sink = fun _ -> ()

(* Index nested loop: probe the store once per row with the pattern's
   constants plus the slots earlier steps bound. *)
let nested store (ctp : Compile.tp) bound k =
  match ctp.pattern with
  | None -> no_rows
  | Some base ->
      let acts = actions ctp bound in
      let input = function Compile.Slot i when List.mem i bound -> i | _ -> -1 in
      let i_s = input ctp.s and i_p = input ctp.p and i_o = input ctp.o in
      let k = counted m_rows_scan k in
      fun row ->
        let pat =
          {
            Hexa.Pattern.s = (if i_s < 0 then base.s else Some row.(i_s));
            p = (if i_p < 0 then base.p else Some row.(i_p));
            o = (if i_o < 0 then base.o else Some row.(i_o));
          }
        in
        Hexa.Store_sig.iter store pat (fun s p o -> if bind row acts s p o then k row)

(* Merge join: rows arrive sorted on slot [v] (the planner guarantees
   it — every step keeps the first scan's order), and the store's sorted
   cursor serves the pattern's matches for each key, galloping forward
   from the previous one. *)
let merge store (ctp : Compile.tp) bound v pos k =
  match ctp.pattern with
  | None -> no_rows
  | Some pat -> (
      match Hexa.Store_sig.seek_sorted store pat pos with
      | None ->
          (* The planner only picks merge when the store offered the
             scan; a concurrent store change could in principle retract
             it, so degrade to the nested loop rather than fail. *)
          nested store ctp bound k
      | Some (_ord, run) ->
          let acts = actions ctp bound in
          let k = counted m_rows_scan k in
          fun row ->
            let key = row.(v) in
            if key >= 0 then run key (key + 1) (fun s p o -> if bind row acts s p o then k row))

(* Hash join: enumerate the pattern's matches once, independently of
   the rows, keyed on the shared slots' values, then probe per row.  The
   build waits for the first row, so EXPLAIN without ANALYZE never pays
   for it. *)
let hash store (ctp : Compile.tp) bound k =
  match ctp.pattern with
  | None -> no_rows
  | Some pat ->
      let acts = actions ctp bound in
      let shared = List.filter (fun v -> List.mem v bound) ctp.Compile.slots in
      let first_at v =
        if ctp.s = Compile.Slot v then fun s _ _ -> s
        else if ctp.p = Compile.Slot v then fun _ p _ -> p
        else fun _ _ o -> o
      in
      let readers = List.map first_at shared in
      let table = ref None in
      let build () =
        Telemetry.Trace.with_span "exec.bgp.hash_build" @@ fun () ->
        let t = Hashtbl.create 256 in
        Hexa.Store_sig.iter store pat (fun s p o ->
            Hashtbl.add t (List.map (fun read -> read s p o) readers) { Dict.Term_dict.s; p; o });
        t
      in
      let k = counted m_rows_scan k in
      fun row ->
        let t =
          match !table with
          | Some t -> t
          | None ->
              let t = build () in
              table := Some t;
              t
        in
        (* find_all returns most-recent-first; reverse back to build
           (index) order so rows stream deterministically. *)
        List.iter
          (fun tr -> if bind_triple row acts tr then k row)
          (List.rev (Hashtbl.find_all t (List.map (fun v -> row.(v)) shared)))

let step store bound (c : Planner.choice) k =
  let ctp = c.Planner.compiled in
  match c.Planner.strategy with
  | Planner.Scan -> nested store ctp bound k
  | Planner.Nested_loop ->
      Telemetry.Metrics.incr m_join_nested;
      nested store ctp bound k
  | Planner.Merge_join { pos; _ } -> (
      Telemetry.Metrics.incr m_join_merge;
      match Compile.atom_at ctp pos with
      | Compile.Slot v -> merge store ctp bound v pos k
      | Compile.Id _ | Compile.Absent -> nested store ctp bound k)
  | Planner.Hash_join _ ->
      Telemetry.Metrics.incr m_join_hash;
      hash store ctp bound k

(* The step chain for planned choices, entered with a row in which
   [bound] slots are set.  EXPLAIN ANALYZE runs it on plan prefixes, so
   its per-scan cardinalities come from exactly the executed operators. *)
let rec pipeline store bound choices k =
  match choices with
  | [] -> k
  | (c : Planner.choice) :: rest ->
      let next =
        pipeline store (Planner.extend bound c.Planner.compiled) rest k
      in
      step store bound c next

(* The interior boundaries that split [pat]'s sorted scan on [pos] of
   the pinned [view] into at most [parts] ranges ([Store_sig.scan_bounds]);
   [None] when the store serves no sorted scan.  No cursor is opened. *)
let split_bounds view pat pos parts =
  match Hexa.Store_sig.seek_ordering view pat pos with
  | None -> None
  | Some _ -> Some (Hexa.Store_sig.scan_bounds view pat pos ~parts)

(* Domain-parallel BGP evaluation.  The driving scan is split into
   contiguous key ranges on its sort position ([split_bounds]); each
   range opens its own sorted cursor on a pinned view of the store (so a
   concurrent delta writer cannot mutate what the lanes read) and runs
   it straight into its own copy of the full downstream pipeline —
   merge/hash probes included — as one task on the [Par] pool.  Ranges
   partition the scan in output order, and every step is
   left-order-preserving, so concatenating the per-range rows in range
   order reproduces the sequential stream exactly (row counters stay
   exact; per-call counters like [query.join.*] and the hash build span
   inflate by the part count — see DESIGN.md §13).  The rows are
   collected per range because the caller's sink is not domain-safe.
   Unlike the sequential path the fan-out is eager: all ranges run to
   completion even if the consumer stops early (LIMIT/ASK).

   [false] means "could not fan out" (no sorted scan to split): fall
   back to the sequential pipeline. *)
let bgp_parallel store width (first : Planner.choice) rest parts pos k =
  let fanout achieved =
    (* Planned vs achieved ranges into the flight recorder: achieved = 0
       records a refused split (the sequential fallback), and the width
       says how many lanes the achieved ranges were spread over. *)
    Telemetry.Trace.emit
      (Telemetry.Trace.Par_fanout
         { patterns = 1 + List.length rest; planned = parts; achieved; width = Par.domains () })
  in
  let ctp = first.Planner.compiled in
  match ctp.pattern with
  | None -> true (* unknown constant: the pattern matches nothing *)
  | Some pat -> (
      let view, unpin = Hexa.Store_sig.pin store in
      let runs =
        Fun.protect ~finally:unpin (fun () ->
            match split_bounds view pat pos parts with
            | None ->
                fanout 0;
                None
            | Some bounds ->
                let n = Array.length bounds in
                fanout (n + 1);
                (* The fan-out span hands its handle to every range task,
                   so the per-range spans (completing on pool domains)
                   attach under the submitting query's trace tree instead
                   of floating as per-domain roots. *)
                Telemetry.Trace.with_span_h "exec.bgp.parallel" (fun parent ->
                    let acts = actions ctp [] in
                    let task i () =
                      Telemetry.Trace.with_span ~parent "exec.bgp.par_range" (fun () ->
                          let out = ref [] in
                          let sink =
                            pipeline view ctp.Compile.slots rest (fun row ->
                                out := Array.copy row :: !out)
                          in
                          let sink = counted m_rows_scan sink in
                          let row = Array.make width unbound in
                          let lo = if i = 0 then min_int else bounds.(i - 1)
                          and hi = if i = n then max_int else bounds.(i) in
                          (match Hexa.Store_sig.seek_sorted view pat pos with
                          | Some (_ord, run) ->
                              run lo hi (fun s p o -> if bind row acts s p o then sink row)
                          | None -> ());
                          List.rev !out)
                    in
                    Some (Par.run (Array.init (n + 1) task))))
      in
      match runs with
      | None -> false
      | Some runs ->
          Array.iter (List.iter k) runs;
          true)

(* The plan's per-step strategies for [plan.choice], two bits each,
   the first step lowest: immediates only, so the recorder keeps no
   part of the plan. *)
let rec step_codes i acc = function
  | [] -> acc
  | (c : Planner.choice) :: rest ->
      let code = Planner.strategy_code c.Planner.strategy in
      let acc = if i < Telemetry.Trace.max_plan_steps then acc lor (code lsl (2 * i)) else acc in
      step_codes (i + 1) acc rest

let eval_bgp store width choices k =
  Telemetry.Trace.emit
    (Telemetry.Trace.Plan_choice { patterns = List.length choices; steps = step_codes 0 0 choices });
  let k = counted m_rows_bgp k in
  let sequential () = pipeline store [] choices k (Array.make width unbound) in
  match choices with
  | ({ Planner.par = Some { Planner.par_parts; par_pos }; _ } as first) :: rest ->
      if not (bgp_parallel store width first rest par_parts par_pos k) then sequential ()
  | _ -> sequential ()

(* --- algebra-level joins ------------------------------------------------------ *)

let union a b = List.sort_uniq compare (a @ b)
let inter a b = List.filter (fun x -> List.mem x b) a
let diff a b = List.filter (fun x -> not (List.mem x b)) a

(* The slots a node's rows always bind, and those they may bind. *)
let rec scope (node : (Compile.tp list * Planner.choice list) Compile.t) =
  match node with
  | Compile.Bgp (ctps, _) ->
      let s = List.sort_uniq compare (List.concat_map (fun (c : Compile.tp) -> c.slots) ctps) in
      (s, s)
  | Compile.Join (a, b) ->
      let ca, ma = scope a and cb, mb = scope b in
      (union ca cb, union ma mb)
  | Compile.Left_join (a, b) ->
      let ca, ma = scope a and _, mb = scope b in
      (ca, union ma mb)
  | Compile.Union (a, b) ->
      let ca, ma = scope a and cb, mb = scope b in
      (inter ca cb, union ma mb)
  | Compile.Values (header, rows) ->
      let all = Array.to_list header in
      let always =
        List.filteri (fun i _ -> List.for_all (fun row -> row.(i) <> unbound) rows) all
      in
      (List.sort_uniq compare always, List.sort_uniq compare all)
  | Compile.Filter (_, q) | Compile.Distinct q | Compile.Order_by (_, q) | Compile.Slice (_, _, q)
    ->
      scope q
  | Compile.Project (vs, q) ->
      let c, m = scope q in
      let kept = Array.to_list vs in
      (inter c kept, inter m kept)
  | Compile.Extend_group (keys, aggs, q) ->
      let c, m = scope q in
      let keys = Array.to_list keys and outs = List.map fst aggs in
      (union (inter c keys) outs, union (inter m keys) outs)

(* The slot a node's rows arrive sorted on, when one is known: a BGP's
   driving-scan order, kept by every operator that streams its left
   input in order. *)
let rec sorted store (node : (Compile.tp list * Planner.choice list) Compile.t) =
  match node with
  | Compile.Bgp (_, choices) -> Planner.sorted_slot store choices
  | Compile.Join (a, _) | Compile.Left_join (a, _) | Compile.Filter (_, a) | Compile.Distinct a
  | Compile.Slice (_, _, a) ->
      sorted store a
  | Compile.Project (vs, a) -> (
      match sorted store a with Some v when Array.mem v vs -> Some v | _ -> None)
  | Compile.Union _ | Compile.Values _ | Compile.Extend_group _ | Compile.Order_by _ -> None

type ctx = {
  store : Hexa.Store_sig.boxed;
  dict : Dict.Term_dict.t;
  width : int;
}

let rec eval ctx node (k : sink) =
  match node with
  | Compile.Bgp (_, choices) -> eval_bgp ctx.store ctx.width choices k
  | Compile.Join (a, b) -> join ctx ~optional:false a b (counted m_rows_join k)
  | Compile.Left_join (a, b) -> join ctx ~optional:true a b (counted m_rows_left_join k)
  | Compile.Union (a, b) ->
      let k = counted m_rows_union k in
      eval ctx a k;
      eval ctx b k
  | Compile.Values (header, rows) ->
      let k = counted m_rows_values k in
      let row = Array.make ctx.width unbound in
      List.iter
        (fun cells ->
          Array.iteri (fun i s -> row.(s) <- cells.(i)) header;
          k row)
        rows
  | Compile.Filter (e, q) ->
      let k = counted m_rows_filter k in
      eval ctx q (fun row -> if passes ctx.dict row e then k row)
  | Compile.Distinct q ->
      let k = counted m_rows_distinct k in
      let seen = Hashtbl.create 64 in
      eval ctx q (fun row ->
          if not (Hashtbl.mem seen row) then begin
            Hashtbl.add seen (Array.copy row) ();
            k row
          end)
  | Compile.Project (vs, q) ->
      let k = counted m_rows_project k in
      let keeps_all =
        let rec from s = s = ctx.width || (Array.mem s vs && from (s + 1)) in
        from 0
      in
      let dropped = if keeps_all then [] else diff (snd (scope q)) (Array.to_list vs) in
      if dropped = [] then eval ctx q k
      else
        let dropped = Array.of_list dropped in
        let saved = Array.make (Array.length dropped) unbound in
        eval ctx q (fun row ->
            Array.iteri
              (fun j s ->
                saved.(j) <- row.(s);
                row.(s) <- unbound)
              dropped;
            k row;
            Array.iteri (fun j s -> row.(s) <- saved.(j)) dropped)
  | Compile.Extend_group (keys, aggs, q) -> group ctx keys aggs q (counted m_rows_group k)
  | Compile.Order_by (orders, q) -> order_by ctx orders q (counted m_rows_order k)
  | Compile.Slice (offset, limit, q) -> (
      let k = counted m_rows_slice k in
      let offset = max 0 (Option.value offset ~default:0) in
      match limit with
      | Some n when n <= 0 -> ()
      | _ -> (
          let exception Done in
          let skipped = ref 0 and emitted = ref 0 in
          match
            eval ctx q (fun row ->
                if !skipped < offset then incr skipped
                else begin
                  k row;
                  incr emitted;
                  match limit with Some n when !emitted >= n -> raise Done | _ -> ()
                end)
          with
          | () -> ()
          | exception Done -> ()))

and collect ctx node =
  let out = ref [] in
  eval ctx node (fun row -> out := Array.copy row :: !out);
  List.rev !out

(* Join and OPTIONAL between algebra nodes.  The right side is built
   once (rows copied out), then every left row probes it: by hash on the
   slots both sides always bind, by merge when both sides arrive sorted
   on one of those slots, and by a nested loop over every right row only
   when no slot is shared for sure — a true cross product, or slots only
   OPTIONAL parts may bind, which a per-pair check then compares.  A
   matching right row fills the left row's unbound slots in place, which
   are restored after the row is passed on. *)
and join ctx ~optional a b k =
  let ca, ma = scope a and cb, mb = scope b in
  let key = inter ca cb and shared = inter ma mb in
  let fill = Array.of_list (diff mb ca) in
  let right =
    Telemetry.Trace.with_span
      (if optional then "exec.left_join.build_right" else "exec.join.build_right")
      (fun () -> collect ctx b)
  in
  let saved = Array.make (Array.length fill) unbound in
  (* Pass [row] merged with the right row [r] on, when they agree on the
     shared slots the probe did not already match. *)
  let emit checks row r =
    let ok = ref true and i = ref 0 in
    while !ok && !i < Array.length checks do
      let s = checks.(!i) in
      let x = row.(s) and y = r.(s) in
      if x <> unbound && y <> unbound && x <> y then ok := false;
      incr i
    done;
    if !ok then begin
      Array.iteri
        (fun j s ->
          saved.(j) <- row.(s);
          if row.(s) = unbound then row.(s) <- r.(s))
        fill;
      k row;
      Array.iteri (fun j s -> row.(s) <- saved.(j)) fill
    end;
    !ok
  in
  let probe matched_on candidates =
    let checks = Array.of_list (diff shared matched_on) in
    fun row ->
      let matched = List.fold_left (fun m r -> emit checks row r || m) false (candidates row) in
      if optional && not matched then k row
  in
  if right = [] && not optional then ()
  else
    match (sorted ctx.store a, sorted ctx.store b) with
    | Some v, Some v' when v = v' && List.mem v key ->
        (* Merge: both sides ascend on [v]; the cursor only moves
           forward, and a run of equal right keys serves every left row
           with that key. *)
        let right = Array.of_list right in
        let n = Array.length right in
        let cursor = ref 0 in
        let run row =
          let x = row.(v) in
          while !cursor < n && right.(!cursor).(v) < x do
            incr cursor
          done;
          let rec from j = if j < n && right.(j).(v) = x then right.(j) :: from (j + 1) else [] in
          from !cursor
        in
        eval ctx a (probe [ v ] run)
    | _ when key <> [] ->
        let table = Hashtbl.create (max 16 (List.length right)) in
        let key_of row = List.map (fun s -> row.(s)) key in
        List.iter (fun r -> Hashtbl.add table (key_of r) r) right;
        eval ctx a (probe key (fun row -> List.rev (Hashtbl.find_all table (key_of row))))
    | _ -> eval ctx a (probe [] (fun _ -> right))

(* Aggregates accumulate per group as rows stream past; only the
   groups are kept, never the rows. *)
and group ctx keys aggs q k =
  let aggs = Array.of_list aggs in
  let fresh () =
    ( Array.make (Array.length aggs) 0,
      Array.map
        (function _, Compile.Count_distinct _ -> Some (Hashtbl.create 8) | _ -> None)
        aggs )
  in
  let groups = Hashtbl.create 16 in
  Telemetry.Trace.with_span "exec.group" (fun () ->
      eval ctx q (fun row ->
          let key = Array.fold_right (fun s acc -> row.(s) :: acc) keys [] in
          let counts, seen =
            match Hashtbl.find_opt groups key with
            | Some acc -> acc
            | None ->
                let acc = fresh () in
                Hashtbl.add groups key acc;
                acc
          in
          Array.iteri
            (fun i (_, agg) ->
              match (agg, seen.(i)) with
              | Compile.Count_all, _ -> counts.(i) <- counts.(i) + 1
              | Compile.Count_var s, _ -> if row.(s) <> unbound then counts.(i) <- counts.(i) + 1
              | Compile.Count_distinct s, Some set ->
                  let x = row.(s) in
                  if x <> unbound && not (Hashtbl.mem set x) then begin
                    Hashtbl.add set x ();
                    counts.(i) <- counts.(i) + 1
                  end
              | Compile.Count_distinct _, None -> ())
            aggs));
  (* SPARQL: an empty solution multiset with aggregates yields one group. *)
  if Hashtbl.length groups = 0 && keys = [||] then Hashtbl.add groups [] (fresh ());
  (* Groups come out in key order: unbound, then term ids, then
     aggregate integers. *)
  let rank x = if x = unbound then (0, 0) else if x >= 0 then (1, x) else (2, -2 - x) in
  let sorted =
    List.sort
      (fun (a, _) (b, _) -> compare (List.map rank a) (List.map rank b))
      (List.of_seq (Hashtbl.to_seq groups))
  in
  let row = Array.make ctx.width unbound in
  List.iter
    (fun (key, (counts, _)) ->
      List.iteri (fun i x -> row.(keys.(i)) <- x) key;
      Array.iteri (fun i (out, _) -> row.(out) <- Binding.encode (Binding.Int counts.(i))) aggs;
      k row)
    sorted

(* ORDER BY computes each row's sort keys once, sorts the decorated
   rows stably, then passes the rows on. *)
and order_by ctx orders q k =
  let rows = Telemetry.Trace.with_span "exec.order_by.collect" (fun () -> collect ctx q) in
  let orders = Array.of_list orders in
  let decorated =
    Array.of_list
      (List.map (fun row -> (Array.map (fun (s, _) -> key_of ctx.dict row.(s)) orders, row)) rows)
  in
  let cmp (ka, _) (kb, _) =
    let rec loop i =
      if i = Array.length orders then 0
      else
        let c = compare_keys ka.(i) kb.(i) in
        if c <> 0 then if snd orders.(i) then -c else c else loop (i + 1)
    in
    loop 0
  in
  Array.stable_sort cmp decorated;
  Array.iter (fun (_, row) -> k row) decorated

(* --- entry points ------------------------------------------------------------ *)

let plan store (c : Compile.query) =
  Compile.map_bgp (fun ctps -> (ctps, Planner.plan_compiled store ctps)) c.Compile.tree

(* Compile, plan and run a query into [k]; the schema of its rows. *)
let evaluate store q k =
  let dict = Hexa.Store_sig.dict store in
  let c = Compile.compile dict q in
  eval { store; dict; width = Array.length c.Compile.names } (plan store c) k;
  c.Compile.names

let solutions store q =
  let out = ref [] in
  let names = evaluate store q (fun row -> out := Array.copy row :: !out) in
  List.rev_map (Binding.of_row names) !out

let count_rows store q =
  let n = ref 0 in
  ignore (evaluate store q (fun _ -> incr n));
  !n

(* Flight-recorder labels: the root operator plus the total pattern
   count — compact enough for a ring slot, specific enough to find the
   query again. *)
let rec pattern_count (q : Algebra.t) =
  match q with
  | Bgp tps -> List.length tps
  | Join (a, b) | Left_join (a, b) | Union (a, b) -> pattern_count a + pattern_count b
  | Values _ -> 0
  | Filter (_, q) | Distinct q | Project (_, q) | Extend_group (_, _, q)
  | Order_by (_, q)
  | Slice (_, _, q) ->
      pattern_count q

let root_op (q : Algebra.t) =
  match q with
  | Bgp _ -> "bgp"
  | Join _ -> "join"
  | Left_join _ -> "left-join"
  | Union _ -> "union"
  | Values _ -> "values"
  | Filter _ -> "filter"
  | Distinct _ -> "distinct"
  | Project _ -> "project"
  | Extend_group _ -> "group"
  | Order_by _ -> "order-by"
  | Slice _ -> "slice"

let query_label q = Telemetry.Trace.query_label ~op:(root_op q) ~patterns:(pattern_count q)

(* Bracket an entry point with flight-recorder events; the end event
   (and its row count) is only emitted on normal return, so a crash
   shows up in the dump as an unmatched query.start. *)
let recorded_entry q rows_of f =
  let op = root_op q and patterns = pattern_count q in
  Telemetry.Trace.emit (Telemetry.Trace.Query_start { op; patterns });
  let x = f () in
  Telemetry.Trace.emit (Telemetry.Trace.Query_end { op; patterns; rows = rows_of x });
  x

let run store q =
  recorded_entry q List.length (fun () ->
      Telemetry.Trace.with_span "exec.run" (fun () -> solutions store q))

let ask store q =
  recorded_entry q
    (fun b -> if b then 1 else 0)
    (fun () ->
      Telemetry.Trace.with_span "exec.ask" (fun () ->
          let exception Found in
          match evaluate store q (fun _ -> raise Found) with
          | _ -> false
          | exception Found -> true))

let count store q =
  recorded_entry q Fun.id (fun () ->
      Telemetry.Trace.with_span "exec.count" (fun () -> count_rows store q))

let construct store ~template q =
  recorded_entry q List.length @@ fun () ->
  Telemetry.Trace.with_span "exec.construct" @@ fun () ->
  let dict = Hexa.Store_sig.dict store in
  let out = ref Rdf.Triple.Set.empty in
  let rows = ref [] in
  let names = evaluate store q (fun row -> rows := Array.copy row :: !rows) in
  let slot v =
    let rec find i = if i = Array.length names then -1 else if names.(i) = v then i else find (i + 1) in
    find 0
  in
  let term_of_atom row = function
    | Algebra.Term t -> Some t
    | Algebra.Var v -> (
        match slot v with
        | -1 -> None
        | s -> Option.bind (Binding.decode row.(s)) (Binding.term dict))
  in
  List.iter
    (fun row ->
      List.iter
        (fun (tp : Algebra.tp) ->
          match (term_of_atom row tp.s, term_of_atom row tp.p, term_of_atom row tp.o) with
          | Some s, Some p, Some o -> (
              match Rdf.Triple.make s p o with
              | triple -> out := Rdf.Triple.Set.add triple !out
              | exception Invalid_argument _ -> ())
          | _ -> ())
        template)
    !rows;
  Rdf.Triple.Set.elements !out

(* --- EXPLAIN ---------------------------------------------------------- *)

type explain_node = {
  op : string;
  detail : string;
  estimate : int option;
  selectivity : float option;
  actual_rows : int option;
  time_s : float option;
  probes : int option;
  gc_words : float option;
  children : explain_node list;
}

let probe_total () =
  List.fold_left
    (fun acc (_, v) -> acc + v)
    0
    (Telemetry.Metrics.snapshot_counters ~prefix:"hexastore.probe." ())

let alloc_words () =
  let st = Gc.quick_stat () in
  (* [Gc.minor_words], not [st.minor_words]: quick_stat omits words
     allocated since the last minor collection, and per-operator windows
     are usually smaller than a minor heap. *)
  Gc.minor_words () +. st.Gc.major_words -. st.Gc.promoted_words

(* ANALYZE measurement of one sub-plan evaluation: rows and wall time
   always; with telemetry enabled also the index-probe counter delta and
   the GC words allocated, attributing physical cost to the operator. *)
let measure_eval ~analyze thunk =
  if not analyze then (None, None, None, None)
  else begin
    let profiled = !Telemetry.Config.enabled in
    let p0 = if profiled then probe_total () else 0 in
    let g0 = if profiled then alloc_words () else 0. in
    let t0 = Telemetry.Clock.now () in
    let n = thunk () in
    let time_s = Telemetry.Clock.now () -. t0 in
    let probes = if profiled then Some (probe_total () - p0) else None in
    let gc = if profiled then Some (alloc_words () -. g0) else None in
    (Some n, Some time_s, probes, gc)
  end

(* ANALYZE companion to the planner's [par=N] hint: how many ranges the
   executor would actually run the driving scan as, from the same
   pinned-view [split_bounds] the parallel path takes.  [Some 0] means
   the split would be refused at execution (sequential fallback). *)
let achieved_fanout store (c : Planner.choice) =
  match c.Planner.par with
  | None -> None
  | Some { Planner.par_parts; par_pos } -> (
      match c.Planner.compiled.pattern with
      | Some pat ->
          let view, unpin = Hexa.Store_sig.pin store in
          Fun.protect ~finally:unpin (fun () ->
              match split_bounds view pat par_pos par_parts with
              | None -> Some 0
              | Some bounds -> Some (Array.length bounds + 1))
      | None -> Some 0)

(* Rows out of the first steps of a planned BGP: the same step chain
   the executor runs. *)
let count_prefix store width prefix =
  let n = ref 0 in
  pipeline store [] prefix (fun _ -> incr n) (Array.make width unbound);
  !n

let rec explain_build ~analyze store (q : Algebra.t) : explain_node =
  (* ANALYZE evaluates each node's sub-plan independently (and plan
     prefixes for BGP scans), so a node's cost includes its inputs —
     cumulative, like the cold cost of running the query up to that
     operator.  Timings read the injectable {!Telemetry.Clock}. *)
  let node ?estimate ?selectivity op detail children =
    let actual_rows, time_s, probes, gc_words =
      measure_eval ~analyze (fun () -> count_rows store q)
    in
    { op; detail; estimate; selectivity; actual_rows; time_s; probes; gc_words; children }
  in
  let sub = explain_build ~analyze store in
  match q with
  | Bgp tps ->
      let choices = Planner.plan store tps in
      let width =
        1 + List.fold_left (fun m (c : Planner.choice) -> List.fold_left max m (c.Planner.compiled.Compile.slots)) (-1) choices
      in
      let scans =
        List.mapi
          (fun i (c : Planner.choice) ->
            let prefix = List.filteri (fun j _ -> j <= i) choices in
            let actual_rows, time_s, probes, gc_words =
              measure_eval ~analyze (fun () -> count_prefix store width prefix)
            in
            {
              op = "scan";
              detail =
                Format.asprintf "%a index=%s strategy=%a%t%t" Algebra.pp_tp c.Planner.tp
                  (Hexa.Ordering.name c.Planner.index) Planner.pp_strategy c.Planner.strategy
                  (fun ppf ->
                    match c.Planner.par with
                    | Some { Planner.par_parts; _ } ->
                        Format.fprintf ppf " par=%d" par_parts;
                        if analyze then
                          Option.iter
                            (Format.fprintf ppf " achieved=%d")
                            (achieved_fanout store c)
                    | None -> ())
                  (fun ppf ->
                    (* Which index representation served the scan; raw is
                       the default and stays unannotated so pre-PR10
                       goldens read unchanged. *)
                    match Hexa.Store_sig.repr_name store with
                    | "raw" -> ()
                    | r -> Format.fprintf ppf " repr=%s" r);
              estimate = Some c.Planner.estimate;
              selectivity = Some c.Planner.selectivity;
              actual_rows;
              time_s;
              probes;
              gc_words;
              children = [];
            })
          choices
      in
      let summary =
        let count s = List.length (List.filter (fun c -> Planner.strategy_name c.Planner.strategy = s) choices) in
        let joins =
          List.filter_map
            (fun s -> match count s with 0 -> None | n -> Some (Printf.sprintf "%d %s" n s))
            [ "merge"; "hash"; "nested-loop" ]
        in
        if joins = [] then "" else ", joins: " ^ String.concat " + " joins
      in
      node "bgp" (Printf.sprintf "%d patterns%s" (List.length tps) summary) scans
  | Join (a, b) -> node "join" "" [ sub a; sub b ]
  | Left_join (a, b) -> node "left-join" "OPTIONAL" [ sub a; sub b ]
  | Union (a, b) -> node "union" "" [ sub a; sub b ]
  | Values (vs, rows) ->
      node
        ~estimate:(List.length rows)
        "values"
        (Printf.sprintf "[%s] %d rows" (String.concat " " (List.map (( ^ ) "?") vs))
           (List.length rows))
        []
  | Filter (expr, inner) -> node "filter" (Format.asprintf "%a" Algebra.pp_expr expr) [ sub inner ]
  | Distinct inner -> node "distinct" "" [ sub inner ]
  | Project (vs, inner) ->
      node "project" (Printf.sprintf "[%s]" (String.concat " " (List.map (( ^ ) "?") vs)))
        [ sub inner ]
  | Extend_group (keys, aggs, inner) ->
      node "group"
        (Format.asprintf "keys=[%s] aggs=[%s]"
           (String.concat " " (List.map (( ^ ) "?") keys))
           (String.concat " "
              (List.map
                 (fun (v, agg) -> Format.asprintf "?%s=%a" v Algebra.pp_aggregate agg)
                 aggs)))
        [ sub inner ]
  | Order_by (orders, inner) ->
      node "order-by"
        (String.concat " "
           (List.map
              (fun { Algebra.key; descending } ->
                Printf.sprintf "?%s%s" key (if descending then " desc" else ""))
              orders))
        [ sub inner ]
  | Slice (offset, limit, inner) ->
      let part name = function None -> [] | Some n -> [ Printf.sprintf "%s=%d" name n ] in
      node "slice" (String.concat " " (part "offset" offset @ part "limit" limit)) [ sub inner ]

let explain ?(analyze = false) store q =
  Telemetry.Trace.with_span "exec.explain" (fun () -> explain_build ~analyze store q)

let pp_explain_node ppf n =
  let detail = if n.detail = "" then "" else " " ^ n.detail in
  Format.fprintf ppf "%s%s" n.op detail;
  (match (n.estimate, n.selectivity) with
  | Some est, Some sel -> Format.fprintf ppf "  (est=%d sel=%.2e)" est sel
  | Some est, None -> Format.fprintf ppf "  (est=%d)" est
  | None, _ -> ());
  (match n.actual_rows with Some r -> Format.fprintf ppf "  rows=%d" r | None -> ());
  (match n.time_s with Some t -> Format.fprintf ppf " time=%.3fms" (t *. 1000.) | None -> ());
  (match n.probes with Some p -> Format.fprintf ppf " probes=%d" p | None -> ());
  match n.gc_words with Some w -> Format.fprintf ppf " gc=%.0fw" w | None -> ()

let pp_explain ppf root =
  let rec go prefix ppf n =
    let rec children ppf = function
      | [] -> ()
      | [ last ] ->
          Format.fprintf ppf "@,%s└─ %a" prefix (go (prefix ^ "   ")) last
      | child :: rest ->
          Format.fprintf ppf "@,%s├─ %a" prefix (go (prefix ^ "│  ")) child;
          children ppf rest
    in
    Format.fprintf ppf "%a%a" pp_explain_node n children n.children
  in
  Format.fprintf ppf "@[<v>%a@]" (go "") root

let rec explain_to_json n =
  let opt name enc = function None -> [] | Some v -> [ (name, enc v) ] in
  Telemetry.Json.Obj
    ([ ("op", Telemetry.Json.String n.op) ]
    @ (if n.detail = "" then [] else [ ("detail", Telemetry.Json.String n.detail) ])
    @ opt "estimate" (fun v -> Telemetry.Json.Int v) n.estimate
    @ opt "selectivity" (fun v -> Telemetry.Json.Float v) n.selectivity
    @ opt "actual_rows" (fun v -> Telemetry.Json.Int v) n.actual_rows
    @ opt "time_s" (fun v -> Telemetry.Json.Float v) n.time_s
    @ opt "probes" (fun v -> Telemetry.Json.Int v) n.probes
    @ opt "gc_words" (fun v -> Telemetry.Json.Float v) n.gc_words
    @
    match n.children with
    | [] -> []
    | children -> [ ("children", Telemetry.Json.List (List.map explain_to_json children)) ])
