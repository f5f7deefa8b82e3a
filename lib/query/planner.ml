let m_plans = Telemetry.Metrics.counter "query.planner.bgps_planned"

let m_scan_index =
  (* Which of the six orderings each planned lookup resolves to. *)
  Array.of_list
    (List.map
       (fun o -> Telemetry.Metrics.counter ("query.planner.scan_index." ^ Hexa.Ordering.name o))
       Hexa.Ordering.all)

let ord_index = function
  | Hexa.Ordering.Spo -> 0
  | Hexa.Ordering.Sop -> 1
  | Hexa.Ordering.Pso -> 2
  | Hexa.Ordering.Pos -> 3
  | Hexa.Ordering.Osp -> 4
  | Hexa.Ordering.Ops -> 5

let estimate_compiled store (ctp : Compile.tp) =
  match ctp.Compile.pattern with Some pat -> Hexa.Store_sig.count store pat | None -> 0

let estimate store tp =
  List.fold_left (fun _ ctp -> estimate_compiled store ctp) 0 (Compile.bgp (Hexa.Store_sig.dict store) [ tp ])

type strategy =
  | Scan
  | Nested_loop
  | Merge_join of {
      var : string;
      pos : Hexa.Pattern.position;
    }
  | Hash_join of { vars : string list }

(* Fan-out hint on a BGP's driving scan: split the scan into
   [par_parts] contiguous ranges on the value at [par_pos] and evaluate
   the downstream pipeline per range on the domain pool. *)
type par_hint = {
  par_parts : int;
  par_pos : Hexa.Pattern.position;
}

type choice = {
  tp : Algebra.tp;
  estimate : int;
  selectivity : float;
  index : Hexa.Ordering.t;
  strategy : strategy;
  par : par_hint option;
  compiled : Compile.tp;
}

(* domain-safety: test-only — ablation switch flipped by the benchmark
   harness and strategy-equivalence tests around whole runs; production
   planning never writes it. *)
let nested_loop_only = ref false

(* domain-safety: test-only — fan-out floor: a driving scan below this
   estimate stays sequential (range setup + domain handoff would
   dominate).  Production planning only reads it; tests and the bench's
   speedup arms lower it to force parallel plans on small fixtures. *)
let parallel_min_rows = ref 512

(* Largest independent right-side cardinality a hash join will buffer.
   Beyond this the build side no longer looks "small" and the
   output-sensitive nested loop is the safer default. *)
let hash_build_limit = 65536

let strategy_code = function Scan -> 0 | Nested_loop -> 1 | Merge_join _ -> 2 | Hash_join _ -> 3

let strategy_name s = Telemetry.Trace.step_names.(strategy_code s)

let pp_strategy ppf = function
  | Scan -> Format.pp_print_string ppf "scan"
  | Nested_loop -> Format.pp_print_string ppf "nested-loop"
  | Merge_join { var; _ } -> Format.fprintf ppf "merge(?%s)" var
  | Hash_join { vars } ->
      Format.fprintf ppf "hash(%s)" (String.concat "," (List.map (( ^ ) "?") vars))

(* The shape a pattern will present at execution time, given the
   slots bound by the choices before it: a position is bound if it is a
   constant or a slot some earlier pattern binds. *)
let runtime_shape bound (ctp : Compile.tp) =
  let b = function
    | Compile.Slot i -> if List.mem i bound then Some 0 else None
    | Compile.Id _ | Compile.Absent -> Some 0
  in
  Hexa.Pattern.shape { Hexa.Pattern.s = b ctp.s; p = b ctp.p; o = b ctp.o }

let positions = [ Hexa.Pattern.Subj; Hexa.Pattern.Pred; Hexa.Pattern.Obj ]

(* The position where slot [v] occurs in the pattern, when it occurs at
   exactly one position (a repeated variable needs post-filtering the
   merge kernel does not do). *)
let sole_position_of v ctp =
  match List.filter (fun pos -> Compile.atom_at ctp pos = Compile.Slot v) positions with
  | [ pos ] -> Some pos
  | _ -> None

(* The variable's name, for EXPLAIN: read off the pattern as written. *)
let name_of ctp v =
  match List.find_opt (fun pos -> Compile.atom_at ctp pos = Compile.Slot v) positions with
  | Some pos -> (
      let src = ctp.Compile.src in
      match (match pos with Hexa.Pattern.Subj -> src.s | Pred -> src.p | Obj -> src.o) with
      | Algebra.Var name -> name
      | Algebra.Term _ -> "")
  | None -> ""

let first_free_slot ord ctp bound =
  List.find_map
    (fun pos ->
      match Compile.atom_at ctp pos with
      | Compile.Slot v when not (List.mem v bound) -> Some v
      | _ -> None)
    (Hexa.Ordering.positions ord)

(* Parallel fan-out for a driving scan: worth it only when the pool has
   width, the scan is big enough to amortise the handoff, and the store
   can both serve and split a sorted scan on the pattern's first free
   variable (splitting on the sort position keeps per-range output
   order, so the in-order merge of the per-domain runs reproduces the
   sequential stream exactly). *)
let par_hint_for store ord (ctp : Compile.tp) est =
  let parts = Par.domains () in
  if parts <= 1 || est < !parallel_min_rows then None
  else
    match first_free_slot ord ctp [] with
    | None -> None
    | Some v -> (
        match (sole_position_of v ctp, ctp.pattern) with
        | Some pos, Some pat when Hexa.Store_sig.seek_ordering store pat pos <> None ->
            Some { par_parts = parts; par_pos = pos }
        | _ -> None)

(* [bound] plus the slots of one more pattern. *)
let extend bound (ctp : Compile.tp) =
  List.fold_left (fun acc v -> if List.mem v acc then acc else v :: acc) bound ctp.slots

let plan_compiled store ctps =
  Telemetry.Metrics.incr m_plans;
  let n = Hexa.Store_sig.size store in
  let numbered = List.mapi (fun i ctp -> (i, ctp, estimate_compiled store ctp)) ctps in
  let rec pick bound sorted_on remaining acc =
    match remaining with
    | [] -> List.rev acc
    | first :: _ ->
        (* Prefer patterns connected to what is already bound; among those
           (or among all, when none connects), the smallest estimate,
           ties to the earlier pattern. *)
        let connected (_, (ctp : Compile.tp), _) = List.exists (fun v -> List.mem v bound) ctp.slots in
        let best = ref first and best_connected = ref (connected first) in
        List.iter
          (fun ((i, _, est) as cand) ->
            let c = connected cand in
            let bi, _, best_est = !best in
            if (c && not !best_connected)
               || (c = !best_connected && (est < best_est || (est = best_est && i < bi)))
            then begin
              best := cand;
              best_connected := c
            end)
          remaining;
        let i, ctp, est = !best in
        let nested_index = Hexa.Ordering.for_shape (runtime_shape bound ctp) in
        let hash_or_nested shared =
          if est > 0 && est <= hash_build_limit then
            (Hash_join { vars = List.map (name_of ctp) shared }, nested_index)
          else (Nested_loop, nested_index)
        in
        let strategy, index =
          if acc = [] then (Scan, nested_index)
          else if !nested_loop_only then (Nested_loop, nested_index)
          else
            match List.filter (fun v -> List.mem v bound) ctp.slots with
            | [] -> (Nested_loop, nested_index)
            | [ v ] when sorted_on = Some v -> (
                (* Both sides stream sorted on [v]: the accumulated rows
                   by the first scan's order, the pattern by a
                   store-served sorted scan — a merge join. *)
                match (sole_position_of v ctp, ctp.pattern) with
                | Some pos, Some pat
                  when pat.Hexa.Pattern.s <> None || pat.p <> None || pat.o <> None -> (
                    (* At least one constant must narrow the scan: a
                       sorted scan of a fully-free pattern walks every
                       header bucket — the nested loop's probe pattern
                       with seek overhead on top — so merge never wins
                       there. *)
                    match Hexa.Store_sig.seek_ordering store pat pos with
                    | Some ord -> (Merge_join { var = name_of ctp v; pos }, ord)
                    | None -> hash_or_nested [ v ])
                | _ -> hash_or_nested [ v ])
            | shared -> hash_or_nested shared
        in
        Telemetry.Metrics.incr m_scan_index.(ord_index index);
        let par = if acc = [] then par_hint_for store index ctp est else None in
        let choice =
          {
            tp = ctp.src;
            estimate = est;
            selectivity = (if n = 0 then 0. else float_of_int est /. float_of_int n);
            index;
            strategy;
            par;
            compiled = ctp;
          }
        in
        let sorted_on = if acc = [] then first_free_slot index ctp bound else sorted_on in
        let remaining = List.filter (fun (j, _, _) -> j <> i) remaining in
        pick (extend bound ctp) sorted_on remaining (choice :: acc)
  in
  pick [] None numbered []

let sorted_slot store = function
  | [] -> None
  | first :: _ -> (
      match first_free_slot first.index first.compiled [] with
      | None -> None
      | Some v -> (
          match (sole_position_of v first.compiled, first.compiled.pattern) with
          | Some pos, Some pat when Hexa.Store_sig.seek_ordering store pat pos <> None -> Some v
          | _ -> None))

let plan store tps = plan_compiled store (Compile.bgp (Hexa.Store_sig.dict store) tps)

let order_bgp store tps = List.map (fun c -> c.tp) (plan store tps)

let pp_choice ppf c =
  Format.fprintf ppf "%a  [index=%s strategy=%a est=%d sel=%.2e%t]" Algebra.pp_tp c.tp
    (Hexa.Ordering.name c.index) pp_strategy c.strategy c.estimate c.selectivity
    (fun ppf ->
      match c.par with
      | Some { par_parts; _ } -> Format.fprintf ppf " par=%d" par_parts
      | None -> ())
