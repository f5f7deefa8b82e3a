open Algebra

(* Telemetry: per-operator produced-row counters (lazy operators count
   rows as they stream), spans around the blocking materialisations and
   the top-level entry points.  All hooks vanish to a flag read while
   telemetry is off. *)
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

let counted c seq =
  if !Telemetry.Config.enabled then
    Seq.map
      (fun x ->
        Telemetry.Metrics.incr c;
        x)
      seq
  else seq

(* --- value comparison ------------------------------------------------- *)

let numeric_of_term = function
  | Rdf.Term.Literal { value; datatype = Some dt; _ }
    when dt = Rdf.Namespace.xsd "integer" || dt = Rdf.Namespace.xsd "decimal"
         || dt = Rdf.Namespace.xsd "double" || dt = Rdf.Namespace.xsd "int"
         || dt = Rdf.Namespace.xsd "long" ->
      float_of_string_opt value
  | _ -> None

let numeric_of_value dict = function
  | Binding.Int n -> Some (float_of_int n)
  | Binding.Id _ as v -> (
      match Binding.term dict v with None -> None | Some t -> numeric_of_term t)

let compare_values dict a b =
  match (numeric_of_value dict a, numeric_of_value dict b) with
  | Some x, Some y -> compare x y
  | Some _, None -> -1
  | None, Some _ -> 1
  | None, None ->
      compare (Binding.value_to_string dict a) (Binding.value_to_string dict b)

(* --- filter evaluation ------------------------------------------------ *)

exception Filter_error
(* SPARQL's "error" outcome: the solution is dropped. *)

let value_of_atom dict binding = function
  | Var v -> ( match Binding.get binding v with Some x -> x | None -> raise Filter_error)
  | Term t -> (
      match Dict.Term_dict.find_term dict t with
      | Some id -> Binding.Id id
      | None ->
          (* A constant not in the dictionary can still be compared by
             value; encode it transiently as its numeric/string form. *)
          (match numeric_of_term t with
          | Some f when Float.is_integer f -> Binding.Int (int_of_float f)
          | _ -> raise Filter_error))

let rec eval_value dict binding = function
  | E_atom a -> value_of_atom dict binding a
  | _ -> raise Filter_error

and eval_bool dict binding expr =
  match expr with
  | E_atom _ -> raise Filter_error
  | E_bound v -> Binding.mem binding v
  | E_not e -> not (eval_bool dict binding e)
  | E_and (a, b) -> eval_bool dict binding a && eval_bool dict binding b
  | E_or (a, b) -> eval_bool dict binding a || eval_bool dict binding b
  | E_eq (a, b) -> cmp dict binding a b = 0
  | E_neq (a, b) -> cmp dict binding a b <> 0
  | E_lt (a, b) -> cmp dict binding a b < 0
  | E_le (a, b) -> cmp dict binding a b <= 0
  | E_gt (a, b) -> cmp dict binding a b > 0
  | E_ge (a, b) -> cmp dict binding a b >= 0

and cmp dict binding a b =
  compare_values dict (eval_value dict binding a) (eval_value dict binding b)

let filter_pass dict binding expr =
  match eval_bool dict binding expr with
  | ok -> ok
  | exception Filter_error -> false

(* --- BGP evaluation --------------------------------------------------- *)

(* Resolve a pattern position under the current solution.  [None] means
   the whole pattern can match nothing (unknown constant). *)
let resolve dict binding = function
  | Term t -> (
      match Dict.Term_dict.find_term dict t with None -> None | Some id -> Some (Some id))
  | Var v -> (
      match Binding.get binding v with
      | Some (Binding.Id id) -> Some (Some id)
      | Some (Binding.Int _) -> None  (* an aggregate value is not a term *)
      | None -> Some None)

let extend_with binding (tp : tp) (tr : Dict.Term_dict.id_triple) =
  (* Bind this pattern's variables to the matched triple, rejecting
     solutions where a repeated variable would take two values. *)
  let step pos_atom value binding =
    match binding with
    | None -> None
    | Some b -> (
        match pos_atom with
        | Term _ -> Some b
        | Var v ->
            if Binding.compatible b v (Binding.Id value) then
              Some (Binding.bind b v (Binding.Id value))
            else None)
  in
  Some binding |> step tp.s tr.s |> step tp.p tr.p |> step tp.o tr.o

let eval_tp store (tp : tp) binding =
  let dict = Hexa.Store_sig.dict store in
  match (resolve dict binding tp.s, resolve dict binding tp.p, resolve dict binding tp.o) with
  | Some s, Some p, Some o ->
      Hexa.Store_sig.lookup store { Hexa.Pattern.s; p; o }
      |> Seq.filter_map (extend_with binding tp)
      |> counted m_rows_scan
  | _ -> Seq.empty

(* --- joins ------------------------------------------------------------ *)

let merge_bindings a b =
  let rec loop acc = function
    | [] -> Some acc
    | (v, x) :: rest ->
        if Binding.compatible acc v x then loop (Binding.bind acc v x) rest else None
  in
  loop a (Binding.to_list b)

(* --- BGP join operators ------------------------------------------------ *)

(* Merge join: the accumulated bindings stream sorted on [var] (the
   planner guarantees it — every step operator preserves the first
   scan's order), and [Store_sig.scan_sorted] serves the pattern's
   matches sorted on [var]'s position with galloping seeks.  The
   equal-key run under the cursor is buffered once per distinct left
   key so that duplicate left keys — the common case after an earlier
   one-to-many step — replay the run without re-seeking the store. *)
let eval_merge store (tp : tp) var pos sols =
  let dict = Hexa.Store_sig.dict store in
  match (resolve dict Binding.empty tp.s, resolve dict Binding.empty tp.p, resolve dict Binding.empty tp.o) with
  | Some s, Some p, Some o -> (
      match Hexa.Store_sig.scan_sorted store { Hexa.Pattern.s; p; o } pos with
      | None ->
          (* The planner only picks merge when the store offered the
             scan; a concurrent store change could in principle retract
             it, so degrade to the nested loop rather than fail. *)
          Seq.concat_map (eval_tp store tp) sols
      | Some (_ord, seek) ->
          let value_at (tr : Dict.Term_dict.id_triple) =
            match pos with
            | Hexa.Pattern.Subj -> tr.s
            | Hexa.Pattern.Pred -> tr.p
            | Hexa.Pattern.Obj -> tr.o
          in
          let collect_run k =
            let rec aux acc seq =
              match seq () with
              | Seq.Cons (tr, tl) when value_at tr = k -> aux (tr :: acc) tl
              | _ -> List.rev acc
            in
            aux [] (seek k)
          in
          let rec go sols last () =
            match sols () with
            | Seq.Nil -> Seq.Nil
            | Seq.Cons (sol, rest) -> (
                match Binding.get sol var with
                | Some (Binding.Id k) ->
                    let run =
                      match last with
                      | Some (k', run) when k' = k -> run
                      | _ -> collect_run k
                    in
                    let matched = List.filter_map (extend_with sol tp) run in
                    Seq.append (List.to_seq matched) (go rest (Some (k, run))) ()
                | Some (Binding.Int _) | None ->
                    (* A non-term value (aggregate) joins no triple. *)
                    go rest last ())
          in
          counted m_rows_scan (go sols None))
  | _ -> Seq.empty

(* Hash join: enumerate the pattern's matches once, independently of the
   accumulated bindings, key them by the shared variables, then probe
   per binding.  The build is deferred into the sequence so EXPLAIN
   without ANALYZE never pays for it. *)
let eval_hash store (tp : tp) shared sols =
  let dict = Hexa.Store_sig.dict store in
  match (resolve dict Binding.empty tp.s, resolve dict Binding.empty tp.p, resolve dict Binding.empty tp.o) with
  | Some s, Some p, Some o ->
      let build () =
        Telemetry.Trace.with_span "exec.bgp.hash_build" @@ fun () ->
        let table = Hashtbl.create 256 in
        Seq.iter
          (fun tr ->
            match extend_with Binding.empty tp tr with
            | Some b -> Hashtbl.add table (List.map (Binding.get b) shared) b
            | None -> ())
          (Hexa.Store_sig.lookup store { Hexa.Pattern.s; p; o });
        table
      in
      let joined () =
        let table = build () in
        Seq.concat_map
          (fun sol ->
            let key = List.map (Binding.get sol) shared in
            (* find_all returns most-recent-first; reverse back to build
               (index) order so results stream deterministically. *)
            List.to_seq (List.rev (Hashtbl.find_all table key))
            |> Seq.filter_map (merge_bindings sol))
          sols ()
      in
      counted m_rows_scan joined
  | _ -> Seq.empty

let eval_choice store sols (c : Planner.choice) =
  match c.Planner.strategy with
  | Planner.Scan -> Seq.concat_map (eval_tp store c.Planner.tp) sols
  | Planner.Nested_loop ->
      Telemetry.Metrics.incr m_join_nested;
      Seq.concat_map (eval_tp store c.Planner.tp) sols
  | Planner.Merge_join { var; pos } ->
      Telemetry.Metrics.incr m_join_merge;
      eval_merge store c.Planner.tp var pos sols
  | Planner.Hash_join { vars } ->
      Telemetry.Metrics.incr m_join_hash;
      eval_hash store c.Planner.tp vars sols

(* Strategy-aware pipeline over an already-planned choice list; EXPLAIN
   ANALYZE reuses this on plan prefixes so its per-operator cardinalities
   come from exactly the executed operators. *)
let eval_plan store choices =
  List.fold_left (eval_choice store) (Seq.return Binding.empty) choices

(* Domain-parallel BGP evaluation.  The driving scan is split into
   contiguous ranges on its sort position ([Store_sig.scan_split]); each
   range seeds the full downstream pipeline — merge/hash probes included
   — as one task on the [Par] pool, over a pinned view of the store so a
   concurrent delta writer cannot mutate what the lanes read.  Ranges
   partition the scan in output order, and every step operator is
   left-order-preserving, so concatenating the per-domain runs in range
   order reproduces the sequential stream exactly (row counters stay
   exact; per-call counters like [query.join.*] and the hash build span
   inflate by the part count — see DESIGN.md §13).  Unlike the
   sequential path the fan-out is eager: all ranges run to completion
   even if the consumer stops early (LIMIT/ASK).

   [None] means "could not fan out" (store refused the split): fall back
   to the sequential pipeline. *)
let eval_bgp_parallel store (first : Planner.choice) rest parts pos =
  let tp = first.Planner.tp in
  let fanout achieved =
    (* Planned vs achieved ranges into the flight recorder: achieved = 0
       records a refused split (the sequential fallback), and the width
       says how many lanes the achieved ranges were spread over. *)
    Telemetry.Trace.emit
      (Telemetry.Trace.Par_fanout
         { patterns = 1 + List.length rest; planned = parts; achieved; width = Par.domains () })
  in
  let dict = Hexa.Store_sig.dict store in
  match (resolve dict Binding.empty tp.s, resolve dict Binding.empty tp.p, resolve dict Binding.empty tp.o) with
  | Some s, Some p, Some o -> (
      let view, unpin = Hexa.Store_sig.pin store in
      Fun.protect ~finally:unpin (fun () ->
          match Hexa.Store_sig.scan_split view { Hexa.Pattern.s; p; o } pos ~parts with
          | None ->
              fanout 0;
              None
          | Some (_ord, ranges) ->
              fanout (Array.length ranges);
              (* The fan-out span hands its handle to every range task,
                 so the per-range spans (completing on pool domains)
                 attach under the submitting query's trace tree instead
                 of floating as per-domain roots. *)
              Telemetry.Trace.with_span_h "exec.bgp.parallel" (fun parent ->
                  let task range () =
                    Telemetry.Trace.with_span ~parent "exec.bgp.par_range" (fun () ->
                        let seed =
                          Seq.filter_map (extend_with Binding.empty tp) range
                          |> counted m_rows_scan
                        in
                        List.of_seq (List.fold_left (eval_choice view) seed rest))
                  in
                  let runs = Par.run (Array.map task ranges) in
                  Some (List.to_seq (List.concat (Array.to_list runs))))))
  | _ -> Some Seq.empty (* unknown constant: the pattern matches nothing *)

let eval_bgp store tps =
  let choices = Planner.plan store tps in
  (* The detail is a thunk: the recorder renders it only when the entry
     is printed or exported, never on the query path.  It holds just the
     strategies, not the choices, so the ring keeps the plan's patterns
     (and their terms) out of the major heap. *)
  let strategies = List.map (fun (c : Planner.choice) -> c.Planner.strategy) choices in
  Telemetry.Trace.emit
    (Telemetry.Trace.Plan_choice
       {
         patterns = List.length tps;
         detail =
           (fun () ->
             String.concat ";" (List.map (Format.asprintf "%a" Planner.pp_strategy) strategies));
       });
  match choices with
  | ({ Planner.par = Some { Planner.par_parts; par_pos }; _ } as first) :: rest -> (
      match eval_bgp_parallel store first rest par_parts par_pos with
      | Some rows -> rows
      | None -> eval_plan store choices)
  | _ -> eval_plan store choices

(* --- grouping --------------------------------------------------------- *)

module Key = struct
  type t = Binding.value option list

  let compare = compare
end

module Kmap = Map.Make (Key)

let eval_group keys aggs solutions =
  let groups =
    List.fold_left
      (fun m sol ->
        let key = List.map (Binding.get sol) keys in
        let bucket = match Kmap.find_opt key m with Some b -> b | None -> [] in
        Kmap.add key (sol :: bucket) m)
      Kmap.empty solutions
  in
  (* SPARQL: an empty solution multiset with aggregates yields one group. *)
  let groups =
    if Kmap.is_empty groups && keys = [] then Kmap.singleton [] [] else groups
  in
  Kmap.fold
    (fun key bucket acc ->
      let base =
        List.fold_left2
          (fun b v value ->
            match value with None -> b | Some x -> Binding.bind b v x)
          Binding.empty keys key
      in
      let with_aggs =
        List.fold_left
          (fun b (out, agg) ->
            let n =
              match agg with
              | Count_all -> List.length bucket
              | Count_var v ->
                  List.length (List.filter (fun sol -> Binding.mem sol v) bucket)
              | Count_distinct v ->
                  List.sort_uniq compare
                    (List.filter_map (fun sol -> Binding.get sol v) bucket)
                  |> List.length
            in
            Binding.bind b out (Binding.Int n))
          base aggs
      in
      with_aggs :: acc)
    groups []
  |> List.rev

(* --- top-level evaluation --------------------------------------------- *)

let rec eval store (q : Algebra.t) : Binding.t Seq.t =
  let dict = Hexa.Store_sig.dict store in
  match q with
  | Bgp tps -> counted m_rows_bgp (eval_bgp store tps)
  | Join (a, b) ->
      let right =
        Telemetry.Trace.with_span "exec.join.build_right" (fun () -> List.of_seq (eval store b))
      in
      Seq.concat_map
        (fun sa -> List.to_seq (List.filter_map (merge_bindings sa) right))
        (eval store a)
      |> counted m_rows_join
  | Left_join (a, b) ->
      let right =
        Telemetry.Trace.with_span "exec.left_join.build_right" (fun () ->
            List.of_seq (eval store b))
      in
      Seq.concat_map
        (fun sa ->
          match List.filter_map (merge_bindings sa) right with
          | [] -> Seq.return sa
          | merged -> List.to_seq merged)
        (eval store a)
      |> counted m_rows_left_join
  | Union (a, b) -> counted m_rows_union (Seq.append (eval store a) (eval store b))
  | Values (vs, rows) ->
      (* Rows with a term unknown to the dictionary cannot join with any
         data; they are dropped (documented subset behaviour). *)
      List.to_seq rows
      |> Seq.filter_map (fun row ->
             let rec build b vars cells =
               match (vars, cells) with
               | [], [] -> Some b
               | v :: vars, cell :: cells -> (
                   match cell with
                   | None -> build b vars cells
                   | Some term -> (
                       match Dict.Term_dict.find_term dict term with
                       | Some id -> build (Binding.bind b v (Binding.Id id)) vars cells
                       | None -> None))
               | _ -> None
             in
             build Binding.empty vs row)
      |> counted m_rows_values
  | Filter (expr, q) ->
      counted m_rows_filter (Seq.filter (fun sol -> filter_pass dict sol expr) (eval store q))
  | Distinct q ->
      let seen = Hashtbl.create 64 in
      Seq.filter
        (fun sol ->
          let key = Binding.to_list sol in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        (eval store q)
      |> counted m_rows_distinct
  | Project (vs, q) ->
      Seq.map
        (fun sol ->
          List.fold_left
            (fun b v ->
              match Binding.get sol v with None -> b | Some x -> Binding.bind b v x)
            Binding.empty vs)
        (eval store q)
      |> counted m_rows_project
  | Extend_group (keys, aggs, q) ->
      Telemetry.Trace.with_span "exec.group" (fun () ->
          List.to_seq (eval_group keys aggs (List.of_seq (eval store q))))
      |> counted m_rows_group
  | Order_by (orders, q) ->
      let sols =
        Telemetry.Trace.with_span "exec.order_by.collect" (fun () ->
            List.of_seq (eval store q))
      in
      let cmp a b =
        let rec loop = function
          | [] -> 0
          | { key; descending } :: rest ->
              let c =
                match (Binding.get a key, Binding.get b key) with
                | None, None -> 0
                | None, Some _ -> -1
                | Some _, None -> 1
                | Some x, Some y -> compare_values dict x y
              in
              if c <> 0 then if descending then -c else c else loop rest
        in
        loop orders
      in
      counted m_rows_order (List.to_seq (List.stable_sort cmp sols))
  | Slice (offset, limit, q) ->
      let s = eval store q in
      let s = match offset with None -> s | Some n -> Seq.drop n s in
      counted m_rows_slice (match limit with None -> s | Some n -> Seq.take n s)

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

let run_seq store q = eval store q

let run store q =
  recorded_entry q List.length (fun () ->
      Telemetry.Trace.with_span "exec.run" (fun () -> List.of_seq (eval store q)))

let ask store q =
  recorded_entry q
    (fun b -> if b then 1 else 0)
    (fun () ->
      Telemetry.Trace.with_span "exec.ask" (fun () -> not (Seq.is_empty (eval store q))))

let count store q =
  recorded_entry q Fun.id (fun () ->
      Telemetry.Trace.with_span "exec.count" (fun () -> Seq.length (eval store q)))

let construct store ~template q =
  recorded_entry q List.length @@ fun () ->
  Telemetry.Trace.with_span "exec.construct" @@ fun () ->
  let dict = Hexa.Store_sig.dict store in
  let term_of_atom sol = function
    | Term t -> Some t
    | Var v -> (
        match Binding.get sol v with None -> None | Some value -> Binding.term dict value)
  in
  let instantiate sol (tp : tp) =
    match (term_of_atom sol tp.s, term_of_atom sol tp.p, term_of_atom sol tp.o) with
    | Some s, Some p, Some o -> (
        match Rdf.Triple.make s p o with
        | triple -> Some triple
        | exception Invalid_argument _ -> None)
    | _ -> None
  in
  let out =
    Seq.fold_left
      (fun acc sol ->
        List.fold_left
          (fun acc tp ->
            match instantiate sol tp with
            | Some triple -> Rdf.Triple.Set.add triple acc
            | None -> acc)
          acc template)
      Rdf.Triple.Set.empty (eval store q)
  in
  Rdf.Triple.Set.elements out

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
   store would actually split the driving scan into, via the same
   pinned-view [scan_split] the parallel path takes.  [Some 0] means
   the split would be refused at execution (sequential fallback). *)
let achieved_fanout store (c : Planner.choice) =
  match c.Planner.par with
  | None -> None
  | Some { Planner.par_parts; par_pos } -> (
      let tp = c.Planner.tp in
      let dict = Hexa.Store_sig.dict store in
      match (resolve dict Binding.empty tp.s, resolve dict Binding.empty tp.p, resolve dict Binding.empty tp.o) with
      | Some s, Some p, Some o ->
          let view, unpin = Hexa.Store_sig.pin store in
          Fun.protect ~finally:unpin (fun () ->
              match
                Hexa.Store_sig.scan_split view { Hexa.Pattern.s; p; o } par_pos
                  ~parts:par_parts
              with
              | None -> Some 0
              | Some (_ord, ranges) -> Some (Array.length ranges))
      | _ -> Some 0)

let rec explain_build ~analyze store (q : Algebra.t) : explain_node =
  (* ANALYZE evaluates each node's sub-plan independently (and plan
     prefixes for BGP scans), so a node's cost includes its inputs —
     cumulative, like the cold cost of running the query up to that
     operator.  Timings read the injectable {!Telemetry.Clock}. *)
  let node ?estimate ?selectivity op detail children =
    let actual_rows, time_s, probes, gc_words =
      measure_eval ~analyze (fun () -> Seq.length (eval store q))
    in
    { op; detail; estimate; selectivity; actual_rows; time_s; probes; gc_words; children }
  in
  let sub = explain_build ~analyze store in
  match q with
  | Bgp tps ->
      let choices = Planner.plan store tps in
      let scans =
        List.mapi
          (fun i (c : Planner.choice) ->
            let prefix = List.filteri (fun j _ -> j <= i) choices in
            let actual_rows, time_s, probes, gc_words =
              measure_eval ~analyze (fun () -> Seq.length (eval_plan store prefix))
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
