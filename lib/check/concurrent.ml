(* Concurrency correctness harness for the domain-parallel executor.

   Two instruments, both reporting typed [Violation.t]s like the rest of
   the check library:

   - [differential]: run one BGP through [Query.Exec] twice — width 1
     (sequential) and width N with the planner's fan-out threshold
     forced to 0 (parallel) — and demand the *ordered* solution lists
     agree (parallel range concatenation must reproduce the sequential
     order exactly, not just the same set), then both against an
     id-level brute-force reference over the store's merged triples.

   - [stress]: one writer domain stages random mutations into a
     [Hexa.Delta] store (mirrored into the [Model] reference) and
     flushes/compacts between rounds, while N reader domains
     continuously pin snapshots ([Hexa.Store_sig.pin]) and check
     executor results on the pinned view against brute force.  After
     every flush the writer validates the full [Invariant.delta]
     catalogue and compares the merged contents to the model. *)

let pp_tps ppf tps =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf " . ")
    Query.Algebra.pp_tp ppf tps

let bgp_vars tps = List.sort_uniq compare (List.concat_map Query.Algebra.vars_of_tp tps)

(* Canonical form shared by the executor and the brute-force reference:
   per solution, the BGP's variables in sorted order with the bound
   dictionary id, and the solutions themselves sorted. *)
let canon_exec vars sols =
  List.sort compare
    (List.map
       (fun b ->
         List.map
           (fun v ->
             match Query.Binding.get b v with
             | Some (Query.Binding.Id i) -> i
             | Some (Query.Binding.Int i) -> i
             | None -> -1)
           vars)
       sols)

let brute_force store tps =
  let dict = Hexa.Store_sig.dict store in
  let triples = List.of_seq (Hexa.Store_sig.lookup store Hexa.Pattern.wildcard) in
  let atom_matches b atom id =
    match atom with
    | Query.Algebra.Term t -> (
        match Dict.Term_dict.find_term dict t with
        | Some i when i = id -> Some b
        | _ -> None)
    | Query.Algebra.Var v -> (
        match List.assoc_opt v b with
        | Some j when j = id -> Some b
        | Some _ -> None
        | None -> Some ((v, id) :: b))
  in
  let rec solve b = function
    | [] -> [ b ]
    | (tp : Query.Algebra.tp) :: rest ->
        List.concat_map
          (fun (tr : Dict.Term_dict.id_triple) ->
            match atom_matches b tp.s tr.s with
            | None -> []
            | Some b -> (
                match atom_matches b tp.p tr.p with
                | None -> []
                | Some b -> (
                    match atom_matches b tp.o tr.o with
                    | None -> []
                    | Some b -> solve b rest)))
          triples
  in
  let vars = bgp_vars tps in
  List.sort compare
    (List.map
       (fun b ->
         List.map (fun v -> match List.assoc_opt v b with Some i -> i | None -> -1) vars)
       (solve [] tps))

let run_with ~domains ~min_rows store q =
  Query.Par.with_domains domains (fun () ->
      let saved = !Query.Planner.parallel_min_rows in
      Query.Planner.parallel_min_rows := min_rows;
      Fun.protect
        ~finally:(fun () -> Query.Planner.parallel_min_rows := saved)
        (fun () -> Query.Exec.run store q))

let snapshot_consistent store tps =
  let got = canon_exec (bgp_vars tps) (Query.Exec.run store (Query.Algebra.Bgp tps)) in
  let expected = brute_force store tps in
  if got = expected then []
  else
    [
      Violation.v Query ~path:(Hexa.Store_sig.name store)
        "executor diverged from brute force on {%a}: %d vs %d canonical solutions" pp_tps
        tps (List.length got) (List.length expected);
    ]

let differential store tps ~domains =
  let q = Query.Algebra.Bgp tps in
  let sequential = run_with ~domains:1 ~min_rows:max_int store q in
  let parallel = run_with ~domains ~min_rows:0 store q in
  let ordered_same =
    List.length sequential = List.length parallel
    && List.for_all2 Query.Binding.equal sequential parallel
  in
  let order_viol =
    if ordered_same then []
    else
      [
        Violation.v Query ~path:(Hexa.Store_sig.name store)
          "parallel (%d domains) diverged from sequential order on {%a}: %d vs %d solutions"
          domains pp_tps tps (List.length parallel) (List.length sequential);
      ]
  in
  let expected = brute_force store tps in
  let brute_viol =
    if canon_exec (bgp_vars tps) parallel = expected then []
    else
      [
        Violation.v Query ~path:(Hexa.Store_sig.name store)
          "parallel (%d domains) diverged from brute force on {%a}" domains pp_tps tps;
      ]
  in
  order_viol @ brute_viol

(* ------------------------------------------------------------------ *)
(* Stress runner                                                       *)
(* ------------------------------------------------------------------ *)

type stress_config = {
  readers : int;
  rounds : int;
  ops_per_round : int;
  domains : int;
  seed : int;
}

let default_stress = { readers = 2; rounds = 4; ops_per_round = 64; domains = 2; seed = 42 }

type stress_report = {
  ops : int;
  flushes : int;
  compactions : int;
  level_merges : int;
  migrations : int;
  queries : int;
  violations : Violation.t list;
}

(* The shared vocabulary: [nodes] serve as both subjects and objects so
   multi-pattern joins have matches; four predicates keep the per-shape
   fan-out realistic. *)
let stress_nodes = 12
let stress_preds = 4
let max_violations = 100

let stress cfg =
  let cfg =
    {
      cfg with
      readers = max 1 cfg.readers;
      rounds = max 1 cfg.rounds;
      ops_per_round = max 1 cfg.ops_per_round;
      domains = max 1 cfg.domains;
    }
  in
  let dict = Dict.Term_dict.create () in
  let iri fmt = Format.kasprintf (fun s -> Rdf.Term.Iri s) fmt in
  let node_terms = Array.init stress_nodes (fun i -> iri "http://stress/n%d" i) in
  let pred_terms = Array.init stress_preds (fun i -> iri "http://stress/p%d" i) in
  let nodes = Array.map (Dict.Term_dict.encode_term dict) node_terms in
  let preds = Array.map (Dict.Term_dict.encode_term dict) pred_terms in
  (* Small thresholds over a seeded base several times larger: writes
     auto-flush into the sorted level while readers hold pins, and the
     level migrates into the base once it outgrows an eighth of it. *)
  let insert_threshold = max 4 (cfg.ops_per_round / 8) in
  let delta =
    Hexa.Delta.create ~dict ~insert_threshold ~delete_threshold:(max 3 (insert_threshold / 2)) ()
  in
  let boxed = Hexa.Store_sig.box_delta delta in
  let model = Model.create () in
  let rng = Random.State.make [| cfg.seed |] in
  let rand_triple st =
    {
      Dict.Term_dict.s = nodes.(Random.State.int st stress_nodes);
      p = preds.(Random.State.int st stress_preds);
      o = nodes.(Random.State.int st stress_nodes);
    }
  in
  (* Seed the store so reader queries are non-empty from round one. *)
  for _ = 1 to stress_nodes * stress_preds * 4 do
    let t = rand_triple rng in
    if Hexa.Delta.add_ids delta t then ignore (Model.add model t)
  done;
  Hexa.Delta.flush delta;
  let v = (fun name -> Query.Algebra.Var name) in
  let t0 = (fun a -> Query.Algebra.Term a) in
  let queries =
    [|
      [ Query.Algebra.tp (v "x") (t0 pred_terms.(0)) (v "y") ];
      [ Query.Algebra.tp (v "x") (v "p") (v "y") ];
      [ Query.Algebra.tp (v "x") (t0 pred_terms.(1)) (v "y");
        Query.Algebra.tp (v "y") (t0 pred_terms.(2)) (v "z") ];
      [ Query.Algebra.tp (v "x") (t0 pred_terms.(0)) (v "y");
        Query.Algebra.tp (v "x") (t0 pred_terms.(1)) (v "z") ];
      [ Query.Algebra.tp (t0 node_terms.(0)) (v "p") (v "y") ];
      [ Query.Algebra.tp (v "x") (t0 pred_terms.(2)) (t0 node_terms.(1)) ];
      [ Query.Algebra.tp (v "x") (v "p") (v "y");
        Query.Algebra.tp (v "y") (t0 pred_terms.(0)) (v "z") ];
    |]
  in
  let stop = Atomic.make false in
  let queries_run = Atomic.make 0 in
  let viols_lock = Mutex.create () in
  let viols = ref [] in
  let nviols = ref 0 in
  let add_viols vs =
    if vs <> [] then begin
      Mutex.lock viols_lock;
      if !nviols < max_violations then begin
        viols := vs @ !viols;
        nviols := !nviols + List.length vs
      end;
      Mutex.unlock viols_lock
    end
  in
  (* Force parallel plans on the small fixture; restored after the
     readers are joined (both globals are only written while the reader
     domains are quiescent). *)
  let saved_min_rows = !Query.Planner.parallel_min_rows in
  let saved_domains = Query.Par.domains () in
  Query.Planner.parallel_min_rows := 0;
  Query.Par.set_domains cfg.domains;
  let reader i () =
    let st = Random.State.make [| cfg.seed; 0x5eed; i |] in
    let continue = ref true in
    while !continue do
      let tps = queries.(Random.State.int st (Array.length queries)) in
      (* lint: allow catch-all — domain boundary: a reader crash must
         surface as a violation, not kill the join. *)
      (try
         let view, unpin = Hexa.Store_sig.pin boxed in
         Fun.protect ~finally:unpin (fun () -> add_viols (snapshot_consistent view tps))
       with e ->
         add_viols
           [
             Violation.v Query
               ~path:(Printf.sprintf "stress.reader%d" i)
               "raised %s" (Printexc.to_string e);
           ]);
      Atomic.incr queries_run;
      continue := not (Atomic.get stop)
    done
  in
  let reader_domains = List.init cfg.readers (fun i -> Domain.spawn (reader i)) in
  let ops = ref 0 and flushes = ref 0 and compactions = ref 0 in
  let level_merges = ref 0 and migrations = ref 0 in
  let pending () = Hexa.Delta.pending_inserts delta + Hexa.Delta.pending_deletes delta in
  let check_against_model where =
    add_viols (Invariant.delta delta);
    let merged = List.rev (Hexa.Delta.fold (fun t acc -> t :: acc) delta []) in
    let expected = Model.to_list model in
    if merged <> expected then
      add_viols
        [
          Violation.v Query ~path:where
            "merged delta (%d triples) disagrees with the model store (%d triples)"
            (List.length merged) (List.length expected);
        ]
  in
  for round = 1 to cfg.rounds do
    for _ = 1 to cfg.ops_per_round do
      incr ops;
      let staged = pending () in
      let t = rand_triple rng in
      if Random.State.bool rng then begin
        let a = Hexa.Delta.add_ids delta t in
        let b = Model.add model t in
        if a <> b then
          add_viols
            [
              Violation.v Query ~path:"stress.writer"
                "add_ids (%d,%d,%d) returned %b but the model said %b" t.s t.p t.o a b;
            ]
      end
      else begin
        let a = Hexa.Delta.remove_ids delta t in
        let b = Model.remove model t in
        if a <> b then
          add_viols
            [
              Violation.v Query ~path:"stress.writer"
                "remove_ids (%d,%d,%d) returned %b but the model said %b" t.s t.p t.o a b;
            ]
      end;
      (* One write moves the buffers by one entry, and both thresholds
         are at least 3: emptied from two or more entries, they were
         auto-flushed — into the level, or with it into the base. *)
      if staged > 1 && pending () = 0 then
        incr (if Hexa.Delta.level_size delta > 0 then level_merges else migrations)
    done;
    if round mod 3 = 0 then begin
      Hexa.Delta.compact delta;
      incr compactions
    end
    else begin
      Hexa.Delta.flush delta;
      incr flushes
    end;
    check_against_model (Printf.sprintf "stress.round%d" round)
  done;
  Atomic.set stop true;
  List.iter Domain.join reader_domains;
  (* Every pin released, every pool task finished. *)
  if Hexa.Delta.pins delta <> 0 then
    add_viols
      [
        Violation.v Query ~path:"stress.pins" "%d pins still held after the readers joined"
          (Hexa.Delta.pins delta);
      ];
  let pool = Query.Par.stats () in
  if pool.Query.Par.queue_depth <> 0 || pool.Query.Par.in_flight <> 0 then
    add_viols
      [
        Violation.v Query ~path:"stress.pool" "pool not drained: %d queued, %d in flight"
          pool.Query.Par.queue_depth pool.Query.Par.in_flight;
      ];
  Hexa.Delta.flush delta;
  incr flushes;
  check_against_model "stress.final";
  Query.Planner.parallel_min_rows := saved_min_rows;
  Query.Par.set_domains saved_domains;
  {
    ops = !ops;
    flushes = !flushes;
    compactions = !compactions;
    level_merges = !level_merges;
    migrations = !migrations;
    queries = Atomic.get queries_run;
    violations = List.rev !viols;
  }
