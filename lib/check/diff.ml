open Hexa

type id_triple = Dict.Term_dict.id_triple = {
  s : int;
  p : int;
  o : int;
}

type op =
  | Insert of id_triple
  | Delete of id_triple
  | Query of Pattern.t
  | Flush
  | Compact

type divergence = {
  step : int;
  op : op;
  detail : string;
}

let op_to_string = function
  | Insert { s; p; o } -> Printf.sprintf "insert (%d,%d,%d)" s p o
  | Delete { s; p; o } -> Printf.sprintf "delete (%d,%d,%d)" s p o
  | Query pat -> Format.asprintf "query %a" Pattern.pp pat
  | Flush -> "flush"
  | Compact -> "compact"

let ops_to_string ops = String.concat "; " (List.map op_to_string ops)

let divergence_to_string d =
  Printf.sprintf "step %d (%s): %s" d.step (op_to_string d.op) d.detail

let triples_to_string l =
  String.concat "," (List.map (fun { s; p; o } -> Printf.sprintf "(%d,%d,%d)" s p o) l)

let run ?(validate = true) ops =
  let h = Hexastore.create () in
  let m = Model.create () in
  let divergences = ref [] in
  let report step op detail = divergences := { step; op; detail } :: !divergences in
  List.iteri
    (fun step op ->
      (match op with
      | Insert tr ->
          let rh = Hexastore.add_ids h tr in
          let rm = Model.add m tr in
          if rh <> rm then
            report step op (Printf.sprintf "insert returned %b, model returned %b" rh rm)
      | Delete tr ->
          let rh = Hexastore.remove_ids h tr in
          let rm = Model.remove m tr in
          if rh <> rm then
            report step op (Printf.sprintf "delete returned %b, model returned %b" rh rm)
      | Query pat ->
          let rh = List.sort Model.compare_spo (Model.pushed (Hexastore.iter h pat)) in
          let rm = Model.lookup m pat in
          if rh <> rm then
            report step op
              (Printf.sprintf "lookup [%s] vs model [%s]" (triples_to_string rh)
                 (triples_to_string rm));
          let ch = Hexastore.count h pat in
          let cm = Model.count m pat in
          if ch <> cm then report step op (Printf.sprintf "count %d vs model %d" ch cm)
      | Flush | Compact ->
          (* A plain Hexastore has nothing staged; these only matter to
             {!run_delta}. *)
          ());
      if Hexastore.size h <> Model.size m then
        report step op
          (Printf.sprintf "size %d vs model %d" (Hexastore.size h) (Model.size m));
      (match op with
      | Insert tr | Delete tr ->
          if Hexastore.mem_ids h tr <> Model.mem m tr then
            report step op
              (Printf.sprintf "mem %b vs model %b" (Hexastore.mem_ids h tr) (Model.mem m tr))
      | Query _ | Flush | Compact -> ());
      if validate then
        match op with
        | Insert _ | Delete _ ->
            List.iter
              (fun v -> report step op ("invariant: " ^ Violation.to_string v))
              (Invariant.store h)
        | Query _ | Flush | Compact -> ())
    ops;
  List.rev !divergences

let run_delta ?(validate = true) ?insert_threshold ?delete_threshold ops =
  let d = Hexa.Delta.create ?insert_threshold ?delete_threshold () in
  let m = Model.create () in
  let divergences = ref [] in
  let report step op detail = divergences := { step; op; detail } :: !divergences in
  List.iteri
    (fun step op ->
      (match op with
      | Insert tr ->
          let rd = Delta.add_ids d tr in
          let rm = Model.add m tr in
          if rd <> rm then
            report step op (Printf.sprintf "insert returned %b, model returned %b" rd rm)
      | Delete tr ->
          let rd = Delta.remove_ids d tr in
          let rm = Model.remove m tr in
          if rd <> rm then
            report step op (Printf.sprintf "delete returned %b, model returned %b" rd rm)
      | Query pat ->
          let rd = List.sort Model.compare_spo (Model.pushed (Delta.iter d pat)) in
          let rm = Model.lookup m pat in
          if rd <> rm then
            report step op
              (Printf.sprintf "lookup [%s] vs model [%s]" (triples_to_string rd)
                 (triples_to_string rm));
          let cd = Delta.count d pat in
          let cm = Model.count m pat in
          if cd <> cm then report step op (Printf.sprintf "count %d vs model %d" cd cm)
      | Flush ->
          Delta.flush d;
          if Delta.pending_inserts d + Delta.pending_deletes d <> 0 then
            report step op
              (Printf.sprintf "flush left %d inserts, %d deletes pending"
                 (Delta.pending_inserts d) (Delta.pending_deletes d))
      | Compact ->
          Delta.compact d;
          if Delta.pending_inserts d + Delta.pending_deletes d <> 0 then
            report step op
              (Printf.sprintf "compact left %d inserts, %d deletes pending"
                 (Delta.pending_inserts d) (Delta.pending_deletes d)));
      if Delta.size d <> Model.size m then
        report step op (Printf.sprintf "size %d vs model %d" (Delta.size d) (Model.size m));
      (match op with
      | Insert tr | Delete tr ->
          if Delta.mem_ids d tr <> Model.mem m tr then
            report step op
              (Printf.sprintf "mem %b vs model %b" (Delta.mem_ids d tr) (Model.mem m tr))
      | Query _ | Flush | Compact -> ());
      if validate then
        match op with
        | Insert _ | Delete _ | Flush | Compact ->
            List.iter
              (fun v -> report step op ("invariant: " ^ Violation.to_string v))
              (Invariant.delta d)
        | Query _ -> ())
    ops;
  List.rev !divergences

(* --- generation and shrinking ------------------------------------------ *)

let gen_ops_with ~extra ~max_id ~max_len =
  let open QCheck.Gen in
  let id = int_bound max_id in
  let gen_triple = map (fun (s, p, o) -> { s; p; o }) (triple id id id) in
  let opt_id = frequency [ (1, return None); (2, map Option.some id) ] in
  let pattern = map (fun (s, p, o) -> { Pattern.s; p; o }) (triple opt_id opt_id opt_id) in
  let op =
    frequency
      ([
         (5, map (fun t -> Insert t) gen_triple);
         (3, map (fun t -> Delete t) gen_triple);
         (2, map (fun p -> Query p) pattern);
       ]
      @ extra)
  in
  list_size (int_bound max_len) op

let gen_ops ~max_id ~max_len = gen_ops_with ~extra:[] ~max_id ~max_len

let gen_delta_ops ~max_id ~max_len =
  gen_ops_with
    ~extra:[ (1, QCheck.Gen.return Flush); (1, QCheck.Gen.return Compact) ]
    ~max_id ~max_len

let shrink_triple { s; p; o } =
  let open QCheck.Iter in
  map (fun s -> { s; p; o }) (QCheck.Shrink.int s)
  <+> map (fun p -> { s; p; o }) (QCheck.Shrink.int p)
  <+> map (fun o -> { s; p; o }) (QCheck.Shrink.int o)

let shrink_pattern pat =
  let open QCheck.Iter in
  let pos get set =
    match get pat with
    | None -> empty
    | Some x -> return (set None) <+> map (fun x -> set (Some x)) (QCheck.Shrink.int x)
  in
  pos (fun p -> p.Pattern.s) (fun s -> { pat with Pattern.s })
  <+> pos (fun p -> p.Pattern.p) (fun p -> { pat with Pattern.p })
  <+> pos (fun p -> p.Pattern.o) (fun o -> { pat with Pattern.o })

let shrink_op op =
  let open QCheck.Iter in
  match op with
  | Insert t -> map (fun t -> Insert t) (shrink_triple t)
  | Delete t ->
      (* A delete often reproduces as the cheaper membership probe. *)
      return (Query (Pattern.of_triple t)) <+> map (fun t -> Delete t) (shrink_triple t)
  | Query p -> map (fun p -> Query p) (shrink_pattern p)
  | Flush | Compact -> empty

let arb_ops ?(max_id = 3) ?(max_len = 40) () =
  QCheck.make
    ~print:(fun ops -> "[" ^ ops_to_string ops ^ "]")
    ~shrink:(QCheck.Shrink.list ~shrink:shrink_op)
    (gen_ops ~max_id ~max_len)

let arb_delta_ops ?(max_id = 3) ?(max_len = 40) () =
  QCheck.make
    ~print:(fun ops -> "[" ^ ops_to_string ops ^ "]")
    ~shrink:(QCheck.Shrink.list ~shrink:shrink_op)
    (gen_delta_ops ~max_id ~max_len)
