type workload = (Pattern.shape * int) list

let workload_of_patterns patterns =
  let tally = Hashtbl.create 8 in
  List.iter
    (fun pat ->
      let shape = Pattern.shape pat in
      Hashtbl.replace tally shape (1 + Option.value ~default:0 (Hashtbl.find_opt tally shape)))
    patterns;
  Hashtbl.fold (fun shape n acc -> (shape, n) :: acc) tally []
  |> List.sort compare

let orderings_used workload =
  List.fold_left
    (fun acc (shape, n) ->
      if n > 0 then Ordering.Set.add (Ordering.for_shape shape) acc else acc)
    Ordering.Set.empty workload

type recommendation = {
  keep : Ordering.t list;
  drop : Ordering.t list;
  native_fraction : float;
}

let recommend workload =
  let used = orderings_used workload in
  let keep = if Ordering.Set.is_empty used then Ordering.Set.singleton Ordering.Spo else used in
  let keep_list = Ordering.Set.elements keep in
  let drop =
    List.filter (fun ord -> not (Ordering.Set.mem ord keep)) Ordering.all
  in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 workload in
  let native =
    List.fold_left
      (fun acc (shape, n) ->
        let nat =
          Ordering.Set.mem (Ordering.for_shape shape) keep
          ||
          match shape with
          | Pattern.All | Pattern.Sp ->
              Ordering.Set.mem (Ordering.twin (Ordering.for_shape shape)) keep
          | _ -> false
        in
        if nat then acc + n else acc)
      0 workload
  in
  {
    keep = keep_list;
    drop;
    native_fraction = (if total = 0 then 1.0 else float_of_int native /. float_of_int total);
  }

let index_of h = function
  | Ordering.Spo -> Hexastore.spo h
  | Ordering.Sop -> Hexastore.sop h
  | Ordering.Pso -> Hexastore.pso h
  | Ordering.Pos -> Hexastore.pos h
  | Ordering.Osp -> Hexastore.osp h
  | Ordering.Ops -> Hexastore.ops h

(* Each kept family as a [Partial] store builds it: its lead ordering
   as an owner, holding the terminal stream, and its twin when that is
   kept too.  A lead that is a Hexastore twin ([pso], [osp], [ops])
   costs about what its owner does (same entries, same terminal
   stream), so the owner stands in for it. *)
let estimate_memory_words h keep =
  let kept = Ordering.Set.of_list keep in
  Ordering.Set.fold
    (fun ord acc ->
      let owner = match ord with Ordering.Pso -> Ordering.Spo | Osp -> Sop | Ops -> Pos | o -> o in
      (* A twin kept with its owner stays a twin. *)
      let as_kept = if Ordering.Set.mem owner kept then ord else owner in
      acc + Index.memory_words (index_of h as_kept))
    kept 0

let savings_fraction h keep =
  let full = Hexastore.memory_words h in
  if full = 0 then 0.
  else 1. -. (float_of_int (estimate_memory_words h keep) /. float_of_int full)

let pp_recommendation ppf r =
  Format.fprintf ppf "keep {%s}, drop {%s}, %.0f%% of the workload served natively"
    (String.concat ", " (List.map Ordering.name r.keep))
    (String.concat ", " (List.map Ordering.name r.drop))
    (100. *. r.native_fraction)
