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

let estimate_memory_words h keep =
  let kept = Ordering.Set.of_list keep in
  let index_words =
    Ordering.Set.fold (fun ord acc -> acc + Index.memory_words (index_of h ord)) kept 0
  in
  (* One copy of each kept family's lists, regardless of whether one or
     both twins are kept, counted through the ordering that
     [Hexastore.memory_words] counts it through. *)
  let families =
    Ordering.Set.fold
      (fun ord acc ->
        let representative =
          match ord with
          | Ordering.Spo | Ordering.Pso -> Ordering.Spo
          | Ordering.Sop | Ordering.Osp -> Ordering.Sop
          | Ordering.Pos | Ordering.Ops -> Ordering.Pos
        in
        Ordering.Set.add representative acc)
      kept Ordering.Set.empty
  in
  let list_words =
    Ordering.Set.fold
      (fun rep acc -> acc + Index.terminal_memory_words (index_of h rep))
      families 0
  in
  index_words + list_words

let savings_fraction h keep =
  let full = Hexastore.memory_words h in
  if full = 0 then 0.
  else 1. -. (float_of_int (estimate_memory_words h keep) /. float_of_int full)

let pp_recommendation ppf r =
  Format.fprintf ppf "keep {%s}, drop {%s}, %.0f%% of the workload served natively"
    (String.concat ", " (List.map Ordering.name r.keep))
    (String.concat ", " (List.map Ordering.name r.drop))
    (100. *. r.native_fraction)
