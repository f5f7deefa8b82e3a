(* Benchmark harness: regenerates every figure of the paper's evaluation
   (§5) plus the ablation benches DESIGN.md calls out.

   Figures 3–9   — Barton queries BQ1–BQ7 (fig 4, 5, 6, 8 with the
                   28-property restriction variants as well);
   Figures 10–14 — LUBM queries LQ1–LQ5;
   Figure 15     — memory usage on both data sets;
   abl-*         — load path, join kernel, dictionary and list-sharing
                   ablations.

   Output is one gnuplot-style series block per figure: response time
   (seconds) against store size (triples) per method, which is the shape
   of the paper's log-scale plots.  `--bechamel` runs the same query
   bodies under Bechamel's OLS estimator at the largest sweep size. *)

open Workloads

type mode =
  | Smoke  (** seconds-scale subset, for the [@bench-smoke] CI alias *)
  | Quick
  | Full

let mode_name = function Smoke -> "smoke" | Quick -> "quick" | Full -> "full"

(* ------------------------------------------------------------------- *)
(* Data environments (built once per run, shared across figures)        *)
(* ------------------------------------------------------------------- *)

let barton_cfg = function
  | Smoke -> Barton.config ~subjects:2_000 ~seed:7 ()
  | Quick -> Barton.config ~subjects:40_000 ~seed:7 ()
  | Full -> Barton.config ~subjects:350_000 ~seed:7 ()

let barton_sizes = function
  | Smoke -> [ 2_000; 8_000 ]
  | Quick -> [ 30_000; 60_000; 120_000; 240_000 ]
  | Full -> [ 250_000; 500_000; 1_000_000; 2_000_000 ]

let lubm_cfg = function
  | Smoke -> Lubm.config ~universities:1 ~departments_per_university:2 ~seed:42 ()
  | Quick -> Lubm.config ~universities:8 ~departments_per_university:4 ~seed:42 ()
  | Full -> Lubm.config ~universities:32 ~departments_per_university:8 ~seed:42 ()

let lubm_sizes = function
  | Smoke -> [ 2_000; 7_000 ]
  | Quick -> [ 30_000; 60_000; 120_000; 240_000 ]
  | Full -> [ 250_000; 500_000; 1_000_000; 2_000_000 ]

type env = {
  barton : Harness.sized_stores list Lazy.t;
  lubm : Harness.sized_stores list Lazy.t;
}

let make_env mode =
  {
    barton =
      lazy
        (Harness.build_prefixes ~kinds:Stores.all_kinds ~sizes:(barton_sizes mode)
           (Barton.generate_seq (barton_cfg mode)));
    lubm =
      lazy
        (Harness.build_prefixes ~kinds:Stores.all_kinds ~sizes:(lubm_sizes mode)
           (Lubm.generate_seq (lubm_cfg mode)));
  }

(* ------------------------------------------------------------------- *)
(* Figure machinery                                                     *)
(* ------------------------------------------------------------------- *)

let timing_repeats = 3

(* Run every (label, body) variant at every sweep point for every
   method.  A body may be [None] when the vocabulary is missing at that
   sweep point. *)
let sweep sized ~variants =
  List.concat_map
    (fun { Harness.n_triples; stores; dict } ->
      List.concat_map
        (fun store ->
          List.filter_map
            (fun (label_suffix, run) ->
              match run dict store with
              | None -> None
              | Some thunk ->
                  let seconds, _ = Harness.time ~warmup:1 ~repeats:timing_repeats thunk in
                  Some
                    {
                      Harness.size = n_triples;
                      method_ = Stores.name store ^ label_suffix;
                      seconds;
                    })
            variants)
        stores)
    sized

(* Every printed series is also retained, so [--json] can re-emit the
   whole run in machine-readable form at the end. *)
let collected : (string * string * Harness.point list) list ref = ref []

let print_series ~figure ~title points =
  collected := (figure, title, points) :: !collected;
  Format.printf "@[<v>%a@]@." (Harness.pp_series ~figure ~title) points

(* A Barton query body, made total over missing vocabulary. *)
let barton_variant ?restrict_label run =
  let label = match restrict_label with None -> "" | Some l -> l in
  ( label,
    fun dict store ->
      match Queries_barton.resolve_ids dict with
      | None -> None
      | Some ids -> Some (fun () -> run dict store ids) )

let barton_plain run = [ barton_variant run ]

let barton_with_28 run run28 =
  [
    barton_variant run;
    barton_variant ~restrict_label:" 28" (fun dict store ids ->
        run28 (Queries_barton.restriction_28 dict) dict store ids);
  ]

let lubm_variant run =
  ( "",
    fun dict store ->
      match Queries_lubm.resolve_ids dict with
      | None -> None
      | Some ids -> Some (fun () -> run store ids) )

(* Forcing results so the work cannot be optimised away. *)
let force_list l = ignore (List.length l)

let fig_barton env ~figure ~title variants =
  print_series ~figure ~title (sweep (Lazy.force env.barton) ~variants)

let fig_lubm env ~figure ~title run =
  print_series ~figure ~title (sweep (Lazy.force env.lubm) ~variants:[ lubm_variant run ])

(* ------------------------------------------------------------------- *)
(* The figures                                                          *)
(* ------------------------------------------------------------------- *)

let fig3 env =
  fig_barton env ~figure:"fig3" ~title:"Barton Query 1 (type counts)"
    (barton_plain (fun _ store ids -> force_list (Queries_barton.bq1 store ids)))

let fig4 env =
  fig_barton env ~figure:"fig4" ~title:"Barton Query 2 (property frequencies of Type:Text)"
    (barton_with_28
       (fun _ store ids -> force_list (Queries_barton.bq2 store ids))
       (fun restrict _ store ids -> force_list (Queries_barton.bq2 ~restrict store ids)))

let fig5 env =
  fig_barton env ~figure:"fig5" ~title:"Barton Query 3 (popular objects per property)"
    (barton_with_28
       (fun _ store ids -> force_list (Queries_barton.bq3 store ids))
       (fun restrict _ store ids -> force_list (Queries_barton.bq3 ~restrict store ids)))

let fig6 env =
  fig_barton env ~figure:"fig6" ~title:"Barton Query 4 (BQ3 over Text and Language:French)"
    (barton_with_28
       (fun _ store ids -> force_list (Queries_barton.bq4 store ids))
       (fun restrict _ store ids -> force_list (Queries_barton.bq4 ~restrict store ids)))

let fig7 env =
  fig_barton env ~figure:"fig7" ~title:"Barton Query 5 (inference via Records/Type)"
    (barton_plain (fun _ store ids -> force_list (Queries_barton.bq5 store ids)))

let fig8 env =
  fig_barton env ~figure:"fig8" ~title:"Barton Query 6 (known or inferred Text, aggregated)"
    (barton_with_28
       (fun _ store ids -> force_list (Queries_barton.bq6 store ids))
       (fun restrict _ store ids -> force_list (Queries_barton.bq6 ~restrict store ids)))

let fig9 env =
  fig_barton env ~figure:"fig9" ~title:"Barton Query 7 (Point 'end' selection)"
    (barton_plain (fun _ store ids -> force_list (Queries_barton.bq7 store ids)))

let fig10 env =
  fig_lubm env ~figure:"fig10" ~title:"LUBM Query 1 (all related to Course10)" (fun store ids ->
      force_list (Queries_lubm.lq1 store ids))

let fig11 env =
  fig_lubm env ~figure:"fig11" ~title:"LUBM Query 2 (all related to University0)"
    (fun store ids -> force_list (Queries_lubm.lq2 store ids))

let fig12 env =
  fig_lubm env ~figure:"fig12" ~title:"LUBM Query 3 (all about AssociateProfessor10)"
    (fun store ids ->
      let out, inc = Queries_lubm.lq3 store ids in
      force_list out;
      force_list inc)

let fig13 env =
  fig_lubm env ~figure:"fig13" ~title:"LUBM Query 4 (people in AP10's courses)"
    (fun store ids -> force_list (Queries_lubm.lq4 store ids))

let fig14 env =
  fig_lubm env ~figure:"fig14" ~title:"LUBM Query 5 (degree holders from AP10's universities)"
    (fun store ids -> force_list (Queries_lubm.lq5 store ids))

let fig15 env =
  let memory_points sized =
    List.concat_map
      (fun { Harness.n_triples; stores; _ } ->
        List.map
          (fun store ->
            {
              Harness.size = n_triples;
              method_ = Stores.name store;
              seconds = Harness.words_to_mb (Stores.memory_words store);
            })
          stores)
      sized
  in
  print_series ~figure:"fig15-barton" ~title:"Memory consumption, Barton data set (MB, not seconds)"
    (memory_points (Lazy.force env.barton));
  print_series ~figure:"fig15-lubm" ~title:"Memory consumption, LUBM data set (MB, not seconds)"
    (memory_points (Lazy.force env.lubm))

(* ------------------------------------------------------------------- *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------- *)

(* abl-load: two write scenarios.  A bare Hexastore's point write is a
   rebuild of the whole store, so every per-triple series goes through
   a Delta, the one per-triple write path.

   Full loads from empty: bulk (one fill) vs incremental (per-triple
   Delta writes, every auto-flush and migration included, no final
   flush) vs delta (the same plus the final flush — the fully amortized
   cost of staging a whole load).

   Small-batch updates onto an existing base of each sweep size:
   update-pertriple writes the batch triple by triple and flushes it
   into the base, paying the index maintenance at once, while
   update-delta only accepts the batch into the write buffer — readable
   at once through the merged view — and defers index maintenance to
   the next flush, whose amortized price the full-load delta series
   shows. *)
let abl_load _env =
  let dict = Dict.Term_dict.create () in
  let triples =
    Array.of_seq
      (Seq.map (Dict.Term_dict.encode_triple dict)
         (Lubm.generate_seq (Lubm.config ~universities:8 ~departments_per_university:4 ())))
  in
  (* A batch of fresh terms (new entities, new vocabulary), disjoint
     from the LUBM data, sized to fit the delta's insert buffer. *)
  let update_k = 2048 in
  let updates =
    Array.init update_k (fun i ->
        Dict.Term_dict.encode_triple dict
          (Rdf.Triple.make
             (Rdf.Term.iri (Printf.sprintf "http://example.org/update/s%d" (i / 8)))
             (Rdf.Term.iri (Printf.sprintf "http://example.org/update/p%d" (i mod 8)))
             (Rdf.Term.iri (Printf.sprintf "http://example.org/update/o%d" i))))
  in
  let sizes =
    List.filter (fun n -> n < Array.length triples) [ 2_000; 8_000; 16_000 ]
    @ [ Array.length triples ]
  in
  let points =
    List.concat_map
      (fun n ->
        let prefix = Array.sub triples 0 n in
        let bulk_s, _ =
          Harness.time ~warmup:0 ~repeats:3 (fun () ->
              let h = Hexa.Hexastore.create ~dict () in
              Hexa.Hexastore.add_bulk_ids h prefix)
        in
        let incr_s, _ =
          Harness.time ~warmup:0 ~repeats:3 (fun () ->
              let dl = Hexa.Delta.create ~dict () in
              Array.iter (fun tr -> ignore (Hexa.Delta.add_ids dl tr)) prefix;
              n)
        in
        let delta_s, _ =
          Harness.time ~warmup:0 ~repeats:3 (fun () ->
              let dl = Hexa.Delta.create ~dict () in
              Array.iter (fun tr -> ignore (Hexa.Delta.add_ids dl tr)) prefix;
              Hexa.Delta.flush dl;
              n)
        in
        (* Update staging needs a pristine base per repetition (re-adding
           a triple already present is a cheap no-op, which would skew a
           reused base), so time single shots over fresh bulk loads and
           keep the best of three. *)
        let fresh_base () =
          let h = Hexa.Hexastore.create ~dict () in
          ignore (Hexa.Hexastore.add_bulk_ids h prefix);
          h
        in
        let best_of_3 f =
          let best = ref infinity in
          for _ = 1 to 3 do
            let dt = f () in
            if dt < !best then best := dt
          done;
          !best
        in
        let upd_triple_s =
          best_of_3 (fun () ->
              let dl = Hexa.Delta.of_base (fresh_base ()) in
              let t0 = Telemetry.Clock.now () in
              Array.iter (fun tr -> ignore (Hexa.Delta.add_ids dl tr)) updates;
              Hexa.Delta.flush dl;
              Telemetry.Clock.now () -. t0)
        in
        let upd_delta_s =
          best_of_3 (fun () ->
              let b = fresh_base () in
              let base_n = Hexa.Hexastore.size b in
              let dl = Hexa.Delta.of_base b in
              let t0 = Telemetry.Clock.now () in
              Array.iter (fun tr -> ignore (Hexa.Delta.add_ids dl tr)) updates;
              let dt = Telemetry.Clock.now () -. t0 in
              assert (Hexa.Delta.size dl = base_n + update_k);
              dt)
        in
        [
          { Harness.size = n; method_ = "bulk"; seconds = bulk_s };
          { Harness.size = n; method_ = "incremental"; seconds = incr_s };
          { Harness.size = n; method_ = "delta"; seconds = delta_s };
          { Harness.size = n; method_ = "update-pertriple"; seconds = upd_triple_s };
          { Harness.size = n; method_ = "update-delta"; seconds = upd_delta_s };
        ])
      sizes
  in
  print_series ~figure:"abl-load"
    ~title:
      (Printf.sprintf
         "Hexastore write paths: full load (bulk/incremental/delta+flush) and %d-triple update \
          staging (seconds)"
         update_k)
    points

(* abl-gc: what a loaded store costs every full major collection.  On
   LUBM 10x4, the best of 7 [Gc.full_major] with the dictionary and the
   id array alone live, then with a raw store and a packed store live
   as well; a store's share is its time minus the dictionary line.  No
   bar: the figure shows where marking time goes. *)
let abl_gc _env =
  let dict = Dict.Term_dict.create () in
  let ids =
    Array.of_seq
      (Seq.map (Dict.Term_dict.encode_triple dict)
         (Lubm.generate_seq (Lubm.config ~universities:10 ~departments_per_university:4 ~seed:1 ())))
  in
  let n = Array.length ids in
  let full_major_s () =
    Gc.full_major ();
    let best = ref infinity in
    for _ = 1 to 7 do
      let t0 = Telemetry.Clock.now () in
      Gc.full_major ();
      best := Float.min !best (Telemetry.Clock.now () -. t0)
    done;
    !best
  in
  let with_store repr =
    let h = Hexa.Hexastore.create ~dict ~repr () in
    ignore (Hexa.Hexastore.add_bulk_ids h ids);
    let s = full_major_s () in
    ignore (Sys.opaque_identity h);
    s
  in
  let point method_ seconds = { Harness.size = n; method_; seconds } in
  let dict_s = full_major_s () in
  let points =
    [
      point "dict" dict_s;
      point "raw" (with_store Vectors.Sorted_ivec.Raw);
      point "packed" (with_store Vectors.Sorted_ivec.Packed);
    ]
  in
  ignore (Sys.opaque_identity (dict, ids));
  print_series ~figure:"abl-gc"
    ~title:"Best of 7 full major collections, LUBM 10x4 (seconds): dictionary alone, + store" points

(* abl-join-kernel: first-step pairwise join kernels on real s-lists —
   linear merge vs galloping vs hash probe (§4.2's merge-join claim). *)
let abl_join_kernel env =
  match List.rev (Lazy.force env.barton) with
  | [] -> ()
  | { Harness.stores; dict; n_triples } :: _ -> (
      match (Harness.hexastore stores, Queries_barton.resolve_ids dict) with
      | Some h, Some ids ->
          let list_of p o =
            match Hexa.Hexastore.subjects_of_po h ~p ~o with
            | Some l -> l
            | None -> Vectors.Sorted_ivec.create ()
          in
          let text = list_of ids.type_p ids.text in
          let french = list_of ids.language ids.french in
          let hash_join a b =
            let tbl = Hashtbl.create (Vectors.Sorted_ivec.length a) in
            Vectors.Sorted_ivec.iter (fun x -> Hashtbl.replace tbl x ()) a;
            let hits = ref 0 in
            Vectors.Sorted_ivec.iter (fun x -> if Hashtbl.mem tbl x then incr hits) b;
            !hits
          in
          let bench name f =
            let s, _ = Harness.time ~warmup:1 ~repeats:5 f in
            { Harness.size = n_triples; method_ = name; seconds = s }
          in
          let points =
            [
              bench "merge-join" (fun () ->
                  Vectors.Sorted_ivec.length (Vectors.Merge.intersect text french));
              bench "gallop-join" (fun () ->
                  Vectors.Sorted_ivec.length (Vectors.Merge.intersect_gallop text french));
              bench "hash-join" (fun () -> hash_join text french);
            ]
          in
          print_series ~figure:"abl-join-kernel"
            ~title:"First-step pairwise join kernels on Text x French subject lists" points
      | _ -> ())

(* abl-join: the planner's per-step join strategies end to end — each
   BQ-class BGP runs through the generic executor twice, once with
   [Planner.nested_loop_only] forcing per-row index probes and once with
   the planner free to pick merge/hash steps.  Wall time comes from a
   telemetry-off timing loop; the index-probe count is the
   hexastore.probe.* counter delta of one traced run. *)
type join_arm = { arm_seconds : float; arm_probes : int }

type join_result = {
  jq : string;
  jq_triples : int;
  jq_rows : int;
  nested : join_arm;
  planned : join_arm;
}

let join_queries =
  let v n = Query.Algebra.Var n in
  let t term = Query.Algebra.Term term in
  let iri = Rdf.Term.iri in
  let tp = Query.Algebra.tp in
  [
    (* BQ2-class (restricted form): the Type:Text anchor joined with one
       property fetch, as BQ2's 28-property restriction issues per
       property (?s merge-joins against the pso scan of Language). *)
    ( "BQ2J",
      [
        tp (v "s") (t (iri Barton.type_p)) (t (iri Barton.text_type));
        tp (v "s") (t (iri Barton.language_p)) (v "l");
      ] );
    (* BQ4-class: a 3-arm star of fully-bound predicates over ?s. *)
    ( "BQ4J",
      [
        tp (v "s") (t (iri Barton.type_p)) (t (iri Barton.text_type));
        tp (v "s") (t (iri Barton.language_p)) (t (Rdf.Term.string_literal Barton.french));
        tp (v "s") (t (iri Barton.origin_p)) (t (iri Barton.dlc));
      ] );
    (* BQ7-class: selective anchor, then two property fetches with a
       free object each (?s merge-joins against pso scans). *)
    ( "BQ7J",
      [
        tp (v "s") (t (iri Barton.point_p)) (t (Rdf.Term.string_literal "end"));
        tp (v "s") (t (iri Barton.encoding_p)) (v "e");
        tp (v "s") (t (iri Barton.type_p)) (v "t");
      ] );
  ]

let join_cache : join_result list option ref = ref None

let join_results env =
  match !join_cache with
  | Some r -> r
  | None ->
      let results =
        match List.rev (Lazy.force env.barton) with
        | [] -> []
        | { Harness.stores; dict; n_triples } :: _ -> (
            match (Harness.hexastore stores, Queries_barton.resolve_ids dict) with
            | Some h, Some _ ->
                let store = Hexa.Store_sig.box_hexastore h in
                List.map
                  (fun (name, tps) ->
                    let body () = Query.Exec.count store (Query.Algebra.Bgp tps) in
                    let arm forced =
                      Query.Planner.nested_loop_only := forced;
                      Fun.protect
                        ~finally:(fun () -> Query.Planner.nested_loop_only := false)
                        (fun () ->
                          let seconds, rows =
                            Telemetry.with_enabled false (fun () ->
                                Harness.time ~warmup:1 ~repeats:timing_repeats body)
                          in
                          let sum_probes () =
                            List.fold_left
                              (fun acc (_, v) -> acc + v)
                              0
                              (Telemetry.Metrics.snapshot_counters
                                 ~prefix:"hexastore.probe." ())
                          in
                          let probes =
                            Telemetry.with_enabled true (fun () ->
                                let before = sum_probes () in
                                ignore (body ());
                                sum_probes () - before)
                          in
                          (rows, { arm_seconds = seconds; arm_probes = probes }))
                    in
                    let rows_nested, nested = arm true in
                    let rows_planned, planned = arm false in
                    assert (rows_nested = rows_planned);
                    { jq = name; jq_triples = n_triples; jq_rows = rows_planned; nested; planned })
                  join_queries
            | _ -> [])
      in
      join_cache := Some results;
      results

let abl_join env =
  match join_results env with
  | [] -> ()
  | results ->
      let points =
        List.concat_map
          (fun r ->
            [
              { Harness.size = r.jq_triples; method_ = r.jq ^ "-nested"; seconds = r.nested.arm_seconds };
              { Harness.size = r.jq_triples; method_ = r.jq ^ "-planned"; seconds = r.planned.arm_seconds };
              {
                Harness.size = r.jq_triples;
                method_ = r.jq ^ "-nested-probes";
                seconds = float_of_int r.nested.arm_probes;
              };
              {
                Harness.size = r.jq_triples;
                method_ = r.jq ^ "-planned-probes";
                seconds = float_of_int r.planned.arm_probes;
              };
            ])
          results
      in
      print_series ~figure:"abl-join"
        ~title:
          "Executor join strategies on BQ-class BGPs: nested-loop ablation vs planned \
           merge/hash (-probes series are index-probe counts, not seconds)"
        points

(* abl-dict: id-level pattern count vs term-level lookup (strings through
   the dictionary) — the per-query cost §4.1's dictionary encoding keeps
   out of the inner loops. *)
let abl_dict env =
  match List.rev (Lazy.force env.barton) with
  | [] -> ()
  | { Harness.stores; dict; n_triples } :: _ -> (
      match (Harness.hexastore stores, Queries_barton.resolve_ids dict) with
      | Some h, Some ids ->
          let type_term = Rdf.Term.iri Barton.type_p in
          let text_term = Rdf.Term.iri Barton.text_type in
          let id_s, _ =
            Harness.time ~warmup:1 ~repeats:5 (fun () ->
                let acc = ref 0 in
                for _ = 1 to 1000 do
                  acc :=
                    !acc + Hexa.Hexastore.count h (Hexa.Pattern.make ~p:ids.type_p ~o:ids.text ())
                done;
                !acc)
          in
          let term_s, _ =
            Harness.time ~warmup:1 ~repeats:5 (fun () ->
                let acc = ref 0 in
                for _ = 1 to 1000 do
                  acc := !acc + Hexa.Hexastore.count_terms h ~p:type_term ~o:text_term ()
                done;
                !acc)
          in
          print_series ~figure:"abl-dict"
            ~title:"1000 pattern counts: id-level vs term-level (dictionary) access"
            [
              { Harness.size = n_triples; method_ = "id-level"; seconds = id_s };
              { Harness.size = n_triples; method_ = "term-level"; seconds = term_s };
            ]
      | _ -> ())

(* abl-share: measured memory with shared terminal lists vs the
   hypothetical unshared layout (each twin ordering owning its own copy
   of every terminal list). *)
let abl_share env =
  let points =
    List.concat_map
      (fun { Harness.n_triples; stores; _ } ->
        List.concat_map
          (function
            | Stores.Hexa h ->
                let shared = Hexa.Hexastore.memory_words h in
                (* Twins owning copies of their owners' lists would
                   each add a terminal stream of one cell per triple. *)
                let extra = 3 * Hexa.Hexastore.size h in
                [
                  {
                    Harness.size = n_triples;
                    method_ = "shared";
                    seconds = Harness.words_to_mb shared;
                  };
                  {
                    Harness.size = n_triples;
                    method_ = "unshared";
                    seconds = Harness.words_to_mb (shared + extra);
                  };
                ]
            | Stores.Partial _ -> [])
          stores)
      (Lazy.force env.barton)
  in
  print_series ~figure:"abl-share"
    ~title:"Terminal-list sharing: measured vs hypothetical unshared memory (MB)" points

(* abl-star: §4.2's merge-join claim as an executor choice — a 3-arm star
   (Type:Text ∧ Language:French ∧ Origin:DLC) evaluated by the k-way
   merge-join operator vs. the generic index-nested-loop executor. *)
let abl_star env =
  match List.rev (Lazy.force env.barton) with
  | [] -> ()
  | { Harness.stores; dict; n_triples } :: _ -> (
      match (Harness.hexastore stores, Queries_barton.resolve_ids dict) with
      | Some h, Some ids ->
          let constraints =
            [
              { Query.Star.p = ids.type_p; o = Some ids.text };
              { Query.Star.p = ids.language; o = Some ids.french };
              { Query.Star.p = ids.origin; o = Some ids.dlc };
            ]
          in
          let tps =
            [
              Query.Algebra.tp (Query.Algebra.Var "s")
                (Query.Algebra.Term (Rdf.Term.iri Barton.type_p))
                (Query.Algebra.Term (Rdf.Term.iri Barton.text_type));
              Query.Algebra.tp (Query.Algebra.Var "s")
                (Query.Algebra.Term (Rdf.Term.iri Barton.language_p))
                (Query.Algebra.Term (Rdf.Term.string_literal Barton.french));
              Query.Algebra.tp (Query.Algebra.Var "s")
                (Query.Algebra.Term (Rdf.Term.iri Barton.origin_p))
                (Query.Algebra.Term (Rdf.Term.iri Barton.dlc));
            ]
          in
          let boxed = Hexa.Store_sig.box_hexastore h in
          let star_s, n_star =
            Harness.time ~repeats:5 (fun () -> Query.Star.count h constraints)
          in
          let exec_s, n_exec =
            Harness.time ~repeats:5 (fun () ->
                Query.Exec.count boxed
                  (Query.Algebra.Distinct
                     (Query.Algebra.Project ([ "s" ], Query.Algebra.Bgp tps))))
          in
          assert (n_star = n_exec);
          print_series ~figure:"abl-star"
            ~title:
              (Printf.sprintf
                 "3-arm star (Text ∧ French ∧ DLC, %d matches): merge-join vs nested-loop"
                 n_star)
            [
              { Harness.size = n_triples; method_ = "merge-join"; seconds = star_s };
              { Harness.size = n_triples; method_ = "nested-loop"; seconds = exec_s };
            ]
      | _ -> ())

(* Every match of [pat], enumerated through the store's push read and
   counted. *)
let matches iter store pat =
  let n = ref 0 in
  iter store pat (fun _ _ _ -> incr n);
  !n

let all_triples h = Array.of_list (Hexa.Hexastore.fold List.cons h [])

(* abl-partial: the §6 index-selection direction — memory and query cost
   of a workload-recommended partial store against the full sextuple
   store, on the LUBM data. *)
let abl_partial env =
  match List.rev (Lazy.force env.lubm) with
  | [] -> ()
  | { Harness.stores; dict; n_triples } :: _ -> (
      match (Harness.hexastore stores, Queries_lubm.resolve_ids dict) with
      | Some full, Some ids ->
          (* The LUBM benchmark workload's shapes. *)
          let workload =
            [ (Hexa.Pattern.O, 4); (Hexa.Pattern.S, 2); (Hexa.Pattern.Sp, 2);
              (Hexa.Pattern.Po, 3); (Hexa.Pattern.P, 1) ]
          in
          let r = Hexa.Advisor.recommend workload in
          let partial = Hexa.Partial.create ~dict ~orderings:r.keep () in
          ignore (Hexa.Partial.add_bulk_ids partial (all_triples full));
          let points =
            [
              {
                Harness.size = n_triples;
                method_ = "memory-full-MB";
                seconds = Harness.words_to_mb (Hexa.Hexastore.memory_words full);
              };
              {
                Harness.size = n_triples;
                method_ = "memory-partial-MB";
                seconds = Harness.words_to_mb (Hexa.Partial.memory_words partial);
              };
            ]
          in
          let timing name pat =
            let f_s, _ =
              Harness.time ~repeats:3 (fun () -> matches Hexa.Hexastore.iter full pat)
            in
            let p_s, _ =
              Harness.time ~repeats:3 (fun () -> matches Hexa.Partial.iter partial pat)
            in
            [
              { Harness.size = n_triples; method_ = name ^ "-full"; seconds = f_s };
              { Harness.size = n_triples; method_ = name ^ "-partial"; seconds = p_s };
            ]
          in
          let points =
            points
            @ timing "lookup-O" (Hexa.Pattern.make ~o:ids.course10 ())
            @ timing "lookup-S" (Hexa.Pattern.make ~s:ids.assoc_prof10 ())
            @ timing "lookup-So-dropped"
                (Hexa.Pattern.make ~s:ids.assoc_prof10 ~o:ids.course10 ())
          in
          print_series ~figure:"abl-partial"
            ~title:
              (Format.asprintf "Workload-selected partial store (%s) vs full sextuple store"
                 (String.concat "+" (List.map Hexa.Ordering.name r.keep)))
            points
      | _ -> ())

(* abl-cyclic: §2.2.2's Kowari-style scheme — the three cyclic orderings
   {spo, pos, osp} only.  The paper argues such indices "cannot provide,
   for example, a sorted list of the subjects defined for a given
   property"; here that shows up as non-native shapes (P, So, Sp's twin)
   answered by fallback traversals. *)
let abl_cyclic env =
  match List.rev (Lazy.force env.lubm) with
  | [] -> ()
  | { Harness.stores; dict; n_triples } :: _ -> (
      match (Harness.hexastore stores, Queries_lubm.resolve_ids dict) with
      | Some full, Some ids ->
          let cyclic =
            Hexa.Partial.create ~dict
              ~orderings:[ Hexa.Ordering.Spo; Hexa.Ordering.Pos; Hexa.Ordering.Osp ] ()
          in
          ignore (Hexa.Partial.add_bulk_ids cyclic (all_triples full));
          let probe name pat =
            let h_s, n_h =
              Harness.time ~repeats:3 (fun () -> matches Hexa.Hexastore.iter full pat)
            in
            let c_s, n_c =
              Harness.time ~repeats:3 (fun () -> matches Hexa.Partial.iter cyclic pat)
            in
            assert (n_h = n_c);
            [
              { Harness.size = n_triples; method_ = name ^ "-hexastore"; seconds = h_s };
              { Harness.size = n_triples; method_ = name ^ "-cyclic3"; seconds = c_s };
            ]
          in
          let type_p = ids.type_p in
          (* The paper's §2.2.2 point verbatim: the cyclic indices "cannot
             provide ... a sorted list of the subjects defined for a given
             property".  The Hexastore reads pso's subject vector; the
             cyclic store must collect subjects from pos[p]'s s-lists and
             sort them. *)
          let sorted_subjects_full () =
            match Hexa.Index.find_vector (Hexa.Hexastore.pso full) type_p with
            | None -> 0
            | Some v -> Vectors.Sorted_ivec.length (Hexa.Pair_vector.keys v)
          in
          let sorted_subjects_cyclic () =
            let acc = Vectors.Dynarray_int.create () in
            Hexa.Partial.iter cyclic (Hexa.Pattern.make ~p:type_p ()) (fun s _ _ ->
                Vectors.Dynarray_int.push acc s);
            Vectors.Dynarray_int.sort_uniq acc;
            Vectors.Dynarray_int.length acc
          in
          let full_s, n_f = Harness.time ~repeats:3 sorted_subjects_full in
          let cyc_s, n_c = Harness.time ~repeats:3 sorted_subjects_cyclic in
          assert (n_f = n_c);
          let points =
            probe "lookup-O" (Hexa.Pattern.make ~o:ids.course10 ())
            @ [
                {
                  Harness.size = n_triples;
                  method_ = "sorted-subjects-of-p-hexastore";
                  seconds = full_s;
                };
                {
                  Harness.size = n_triples;
                  method_ = "sorted-subjects-of-p-cyclic3";
                  seconds = cyc_s;
                };
              ]
            @ probe "lookup-So" (Hexa.Pattern.make ~s:ids.assoc_prof10 ~o:ids.university0 ())
            @ [
                {
                  Harness.size = n_triples;
                  method_ = "memory-hexastore-MB";
                  seconds = Harness.words_to_mb (Hexa.Hexastore.memory_words full);
                };
                {
                  Harness.size = n_triples;
                  method_ = "memory-cyclic3-MB";
                  seconds = Harness.words_to_mb (Hexa.Partial.memory_words cyclic);
                };
              ]
          in
          print_series ~figure:"abl-cyclic"
            ~title:"Kowari-style cyclic 3-index scheme (spo+pos+osp) vs the full Hexastore"
            points
      | _ -> ())

(* abl-usage: which of the six indices each benchmark query strategy
   reads on the Hexastore (the §6 observation that some indices are
   seldom used under a given workload). *)
let abl_usage _env =
  Format.printf "# figure abl-usage — index families read by each Hexastore query strategy@.";
  Format.printf "# query  indices@.";
  List.iter
    (fun (q, idx) -> Format.printf "%s %s@." q idx)
    [
      ("BQ1", "pos");
      ("BQ2", "pos,spo");
      ("BQ3", "pos,spo");
      ("BQ4", "pos,spo");
      ("BQ5", "pos,pso,spo");
      ("BQ6", "pos,pso,spo");
      ("BQ7", "pos,pso");
      ("LQ1", "osp");
      ("LQ2", "osp");
      ("LQ3", "spo,osp");
      ("LQ4", "spo,osp");
      ("LQ5", "sop,pos");
      ("(never)", "ops");
    ];
  Format.printf "@."

(* abl-telemetry: cost of the PR-2 instrumentation hooks.  The same
   bulk-load + 2000-count body runs with telemetry disabled (every hook
   is one flag read and a fall-through branch) and enabled (counters,
   histograms and spans recording); "telemetry-off" is the number that
   must not regress against pre-instrumentation baselines. *)
let telemetry_overhead () =
  let dict = Dict.Term_dict.create () in
  let triples =
    Array.of_seq
      (Seq.map (Dict.Term_dict.encode_triple dict)
         (Lubm.generate_seq (Lubm.config ~universities:1 ~departments_per_university:2 ())))
  in
  let probes = Array.sub triples 0 (min 2_000 (Array.length triples)) in
  let body () =
    let h = Hexa.Hexastore.create ~dict () in
    ignore (Hexa.Hexastore.add_bulk_ids h triples);
    let acc = ref 0 in
    Array.iter
      (fun (tr : Dict.Term_dict.id_triple) ->
        acc := !acc + Hexa.Hexastore.count h (Hexa.Pattern.make ~s:tr.s ~p:tr.p ()))
      probes;
    !acc
  in
  let off_s, n_off =
    Telemetry.with_enabled false (fun () -> Harness.time ~warmup:1 ~repeats:5 body)
  in
  let on_s, n_on =
    Telemetry.with_enabled true (fun () -> Harness.time ~warmup:1 ~repeats:5 body)
  in
  assert (n_off = n_on);
  (Array.length triples, off_s, on_s)

let abl_telemetry _env =
  let n, off_s, on_s = telemetry_overhead () in
  print_series ~figure:"abl-telemetry"
    ~title:
      (Printf.sprintf
         "Instrumentation cost, bulk-load of %d triples + 2000 counts (on/off = %.2fx)" n
         (on_s /. off_s))
    [
      { Harness.size = n; method_ = "telemetry-off"; seconds = off_s };
      { Harness.size = n; method_ = "telemetry-on"; seconds = on_s };
    ]

(* profiling: the PR-7 observability section.  Flight-recorder overhead
   is the on/off wall-time ratio of a repeated BGP count with the
   telemetry master gate off in both arms; the off arm runs with the
   recorder's capacity at 0, so the only difference between them is the
   recorder's per-query events (the acceptance bar is < 5%).  One traced
   run under a zero slow-query threshold then exercises the profiler end
   to end — a Trace.Slow_query entry with its --analyze plan — and
   populates the scan-size histogram whose p50/p95/p99 the artifact
   reports. *)
let with_events flag f =
  if flag then f ()
  else begin
    let saved = Telemetry.Trace.capacity () in
    Telemetry.Trace.set_capacity 0;
    Fun.protect ~finally:(fun () -> Telemetry.Trace.set_capacity saved) f
  end

let profiling_json ~mode env =
  match List.rev (Lazy.force env.barton) with
  | [] -> Telemetry.Json.Null
  | { Harness.stores; dict; n_triples } :: _ -> (
      match (Harness.hexastore stores, Queries_barton.resolve_ids dict) with
      | Some h, Some _ ->
          let store = Hexa.Store_sig.box_hexastore h in
          let q = Query.Algebra.Bgp (List.assoc "BQ4J" join_queries) in
          let body () = Query.Exec.count store q in
          (* Per-sample inner loop: amortizes Harness.time's clock reads
             and gives the median something steadier than a single
             ~ms-scale count to chew on. *)
          let iterations = match mode with Smoke -> 10 | Quick | Full -> 30 in
          let loop () =
            let acc = ref 0 in
            for _ = 1 to iterations do
              acc := !acc + body ()
            done;
            !acc
          in
          let time_arm events_on =
            Telemetry.with_enabled false (fun () ->
                with_events events_on (fun () -> Harness.time ~warmup:2 ~repeats:7 loop))
          in
          let off_s, n_off = time_arm false in
          let recorded_before = Telemetry.Trace.recorded () in
          let on_s, n_on = time_arm true in
          let recorder_events = Telemetry.Trace.recorded () - recorded_before in
          let recorder_dropped = Telemetry.Trace.dropped () in
          assert (n_off = n_on);
          (* One fully-traced run: zero threshold forces a Slow_query
             entry for a query that also feeds the scan-size histogram. *)
          let slow_before = Telemetry.Profile.slow_count () in
          let saved_threshold = Telemetry.Profile.slow_threshold_s () in
          let slow_entry =
            Telemetry.with_enabled true (fun () ->
                Telemetry.Profile.set_threshold_s 0.;
                Fun.protect
                  ~finally:(fun () -> Telemetry.Profile.set_threshold_s saved_threshold)
                  (fun () ->
                    let _, d = Telemetry.Profile.profiled body in
                    Telemetry.Profile.note ~label:(Query.Exec.query_label q)
                      ~plan:(fun () ->
                        Format.asprintf "%a" Query.Exec.pp_explain
                          (Query.Exec.explain ~analyze:true store q))
                      d;
                    d))
          in
          let slow_logged = Telemetry.Profile.slow_count () - slow_before in
          let scan_h = Telemetry.Metrics.histogram "hexastore.scan.terminal_size" in
          let quantile qv = Telemetry.Histogram.quantile scan_h qv in
          Telemetry.Json.Obj
            [
              ("triples", Telemetry.Json.Int n_triples);
              ( "flight_recorder",
                Telemetry.Json.Obj
                  [
                    ("iterations", Telemetry.Json.Int iterations);
                    ("events_off_seconds", Telemetry.Json.Float off_s);
                    ("events_on_seconds", Telemetry.Json.Float on_s);
                    ("overhead_ratio", Telemetry.Json.Float (on_s /. off_s));
                    ("events_recorded", Telemetry.Json.Int recorder_events);
                    ("events_dropped", Telemetry.Json.Int recorder_dropped);
                    ("ring_capacity", Telemetry.Json.Int (Telemetry.Trace.capacity ()));
                  ] );
              ( "slow_query",
                Telemetry.Json.Obj
                  [
                    ("threshold_ms", Telemetry.Json.Float 0.);
                    ("logged", Telemetry.Json.Int slow_logged);
                    ("label", Telemetry.Json.String (Query.Exec.query_label q));
                    ( "wall_ms",
                      Telemetry.Json.Float (slow_entry.Telemetry.Profile.wall_s *. 1e3) );
                    ( "probes",
                      Telemetry.Json.Int
                        (Telemetry.Profile.counter_total ~prefix:"hexastore.probe."
                           slow_entry) );
                  ] );
              ( "scan_terminal_size_quantiles",
                Telemetry.Json.Obj
                  [
                    ("count", Telemetry.Json.Int (Telemetry.Histogram.count scan_h));
                    ("p50", Telemetry.Json.Float (quantile 0.5));
                    ("p95", Telemetry.Json.Float (quantile 0.95));
                    ("p99", Telemetry.Json.Float (quantile 0.99));
                  ] );
            ]
      | _ -> Telemetry.Json.Null)

(* ------------------------------------------------------------------- *)
(* parallel: the PR-8 domain-pool speedup curve                         *)
(* ------------------------------------------------------------------- *)

(* Scan-heavy BGPs at executor fan-out widths 1/2/4 over the largest
   LUBM prefix.  Wall times are telemetry-off medians from
   [Harness.time]; separately, each arm's individual run latencies feed
   a [Telemetry.Histogram] whose p50/p95/p99 land in the JSON artifact.
   The planner's fan-out threshold is forced to 0 for widths > 1 so the
   quick-mode prefixes still split.  On a single-core host the curve
   records the (expected) absence of speedup — the validator only
   demands >1x when the artifact itself says cores >= 2. *)

type par_arm = {
  pa_width : int;
  pa_seconds : float;
  pa_p50_us : float;
  pa_p95_us : float;
  pa_p99_us : float;
}

type par_query = { pq : string; pq_rows : int; pq_arms : par_arm list }

(* One extra pass at the widest width with telemetry on: the pool's own
   accounting ([Query.Par.stats]) plus the task wait/run latency
   histograms from the registry — the PR-9 "pool" section of the JSON
   artifact. *)
type pool_figure = {
  pf_width : int;
  pf_stats : Query.Par.stats;
  pf_wait : Telemetry.Monitor.hist_sample option;
  pf_run : Telemetry.Monitor.hist_sample option;
}

let parallel_widths = [ 1; 2; 4 ]

let parallel_memo : (int * par_query list) option ref = ref None

let pool_memo : pool_figure option ref = ref None

let parallel_results env =
  match !parallel_memo with
  | Some r -> r
  | None ->
      let v name = Query.Algebra.Var name in
      let t iri = Query.Algebra.Term (Rdf.Term.iri iri) in
      let queries =
        [
          ("scan-all", [ Query.Algebra.tp (v "s") (v "p") (v "o") ]);
          ("scan-type", [ Query.Algebra.tp (v "x") (t Rdf.Namespace.rdf_type) (v "c") ]);
          ( "join-type-takes",
            [
              Query.Algebra.tp (v "x") (t Rdf.Namespace.rdf_type) (v "c");
              Query.Algebra.tp (v "x") (t (Rdf.Namespace.ub "takesCourse")) (v "y");
            ] );
          ( "join-member-email",
            [
              Query.Algebra.tp (v "x") (t (Rdf.Namespace.ub "memberOf")) (v "d");
              Query.Algebra.tp (v "x") (t (Rdf.Namespace.ub "emailAddress")) (v "e");
            ] );
        ]
      in
      let r =
        match List.rev (Lazy.force env.lubm) with
        | [] -> (0, [])
        | { Harness.stores; n_triples; dict = _ } :: _ -> (
            match Harness.hexastore stores with
            | None -> (0, [])
            | Some h ->
                let boxed = Hexa.Store_sig.box_hexastore h in
                let lat_repeats = 8 in
                let arm name q width =
                  Query.Par.with_domains width (fun () ->
                      let saved = !Query.Planner.parallel_min_rows in
                      if width > 1 then Query.Planner.parallel_min_rows := 0;
                      Fun.protect
                        ~finally:(fun () -> Query.Planner.parallel_min_rows := saved)
                        (fun () ->
                          let run () = List.length (Query.Exec.run boxed q) in
                          let seconds, _ =
                            Telemetry.with_enabled false (fun () ->
                                Harness.time ~warmup:1 ~repeats:timing_repeats run)
                          in
                          let hist =
                            Telemetry.Histogram.make
                              (Printf.sprintf "bench.parallel.%s.d%d" name width)
                          in
                          for _ = 1 to lat_repeats do
                            let t0 = Telemetry.Clock.now () in
                            ignore (run ());
                            let us = (Telemetry.Clock.now () -. t0) *. 1e6 in
                            Telemetry.with_enabled true (fun () ->
                                Telemetry.Histogram.observe hist (max 1 (int_of_float us)))
                          done;
                          let quant p = Telemetry.Histogram.quantile hist p in
                          {
                            pa_width = width;
                            pa_seconds = seconds;
                            pa_p50_us = quant 0.5;
                            pa_p95_us = quant 0.95;
                            pa_p99_us = quant 0.99;
                          }))
                in
                let results =
                  List.map
                    (fun (name, tps) ->
                      let q = Query.Algebra.Bgp tps in
                      let rows = List.length (Query.Exec.run boxed q) in
                      { pq = name; pq_rows = rows; pq_arms = List.map (arm name q) parallel_widths })
                    queries
                in
                let () =
                  (* Pool accounting pass: same four BGPs, widest width,
                     telemetry on so the wait/run histograms fill.  Stats
                     are reset first so the lane/submitted/completed
                     invariants the validator checks hold exactly. *)
                  let width = List.fold_left max 1 parallel_widths in
                  Query.Par.with_domains width (fun () ->
                      let saved = !Query.Planner.parallel_min_rows in
                      Query.Planner.parallel_min_rows := 0;
                      Fun.protect
                        ~finally:(fun () -> Query.Planner.parallel_min_rows := saved)
                        (fun () ->
                          Query.Par.reset_stats ();
                          Telemetry.with_enabled true (fun () ->
                              List.iter
                                (fun (_, tps) ->
                                  ignore (Query.Exec.run boxed (Query.Algebra.Bgp tps)))
                                queries);
                          let find name =
                            List.fold_left
                              (fun acc (n, s) ->
                                match s with
                                | Telemetry.Monitor.S_histogram h when n = name -> Some h
                                | _ -> acc)
                              None
                              (Telemetry.Monitor.sample ()).Telemetry.Monitor.metrics
                          in
                          pool_memo :=
                            Some
                              {
                                pf_width = width;
                                pf_stats = Query.Par.stats ();
                                pf_wait = find "par.task.wait_us";
                                pf_run = find "par.task.run_us";
                              }))
                in
                (n_triples, results))
      in
      parallel_memo := Some r;
      (* Leave the process the way the remaining sections expect to find
         it: join the pool's worker domains and compact away this
         section's dead store copies.  Without this the workload medians
         measured next inflate several-fold from the parallel arms'
         leftover heap and domains — a measurement artifact that reads as
         a phantom PR-over-PR regression. *)
      Query.Par.shutdown ();
      Gc.compact ();
      r

let arm_at r w = List.find (fun a -> a.pa_width = w) r.pq_arms

let fig_parallel env =
  match parallel_results env with
  | _, [] -> ()
  | n_triples, results ->
      let points =
        List.concat_map
          (fun r ->
            let t1 = (arm_at r 1).pa_seconds in
            List.map
              (fun a ->
                {
                  Harness.size = n_triples;
                  method_ = Printf.sprintf "%s-d%d" r.pq a.pa_width;
                  seconds = a.pa_seconds;
                })
              r.pq_arms
            @ List.filter_map
                (fun a ->
                  if a.pa_width = 1 then None
                  else
                    Some
                      {
                        Harness.size = n_triples;
                        method_ = Printf.sprintf "%s-speedup-d%d" r.pq a.pa_width;
                        seconds = (if a.pa_seconds > 0. then t1 /. a.pa_seconds else 0.);
                      })
                r.pq_arms)
          results
      in
      let pool_points =
        match !pool_memo with
        | None -> []
        | Some p ->
            let s = p.pf_stats in
            let completed = max 1 s.Query.Par.completed in
            List.mapi
              (fun lane n ->
                {
                  Harness.size = n_triples;
                  method_ = Printf.sprintf "pool-util-lane%d" lane;
                  seconds = float_of_int n /. float_of_int completed;
                })
              (Array.to_list s.Query.Par.lane_tasks)
            @ List.concat_map
                (fun (tag, h) ->
                  match h with
                  | None -> []
                  | Some h ->
                      [
                        {
                          Harness.size = n_triples;
                          method_ = Printf.sprintf "pool-%s-p95-us" tag;
                          seconds = h.Telemetry.Monitor.hs_p95;
                        };
                      ])
                [ ("wait", p.pf_wait); ("run", p.pf_run) ]
      in
      print_series ~figure:"parallel"
        ~title:
          (Printf.sprintf
             "Domain-parallel BGP execution at widths 1/2/4 (%d cores; speedup series are \
              ratios, pool-util series are task fractions per lane, pool-*-p95 series are \
              microseconds)"
             (Domain.recommended_domain_count ()))
        (points @ pool_points)

let parallel_json env =
  match parallel_results env with
  | _, [] -> Telemetry.Json.Null
  | n_triples, results ->
      let arm_json a =
        Telemetry.Json.Obj
          [
            ("seconds", Telemetry.Json.Float a.pa_seconds);
            ("p50_us", Telemetry.Json.Float a.pa_p50_us);
            ("p95_us", Telemetry.Json.Float a.pa_p95_us);
            ("p99_us", Telemetry.Json.Float a.pa_p99_us);
          ]
      in
      let aggregate w =
        let tot1 = List.fold_left (fun acc r -> acc +. (arm_at r 1).pa_seconds) 0. results in
        let totw = List.fold_left (fun acc r -> acc +. (arm_at r w).pa_seconds) 0. results in
        if totw > 0. then tot1 /. totw else 0.
      in
      Telemetry.Json.Obj
        [
          ("cores", Telemetry.Json.Int (Domain.recommended_domain_count ()));
          ("widths", Telemetry.Json.List (List.map (fun w -> Telemetry.Json.Int w) parallel_widths));
          ("triples", Telemetry.Json.Int n_triples);
          ( "queries",
            Telemetry.Json.Obj
              (List.map
                 (fun r ->
                   ( r.pq,
                     Telemetry.Json.Obj
                       (("rows", Telemetry.Json.Int r.pq_rows)
                       :: List.map
                            (fun a -> (Printf.sprintf "d%d" a.pa_width, arm_json a))
                            r.pq_arms) ))
                 results) );
          ( "aggregate_speedup",
            Telemetry.Json.Obj
              (List.filter_map
                 (fun w ->
                   if w = 1 then None
                   else Some (Printf.sprintf "d%d" w, Telemetry.Json.Float (aggregate w)))
                 parallel_widths) );
        ]

let pool_json env =
  ignore (parallel_results env);
  match !pool_memo with
  | None -> Telemetry.Json.Null
  | Some p ->
      let s = p.pf_stats in
      let completed = max 1 s.Query.Par.completed in
      let hist_json = function
        | None -> Telemetry.Json.Null
        | Some h ->
            Telemetry.Json.Obj
              [
                ("count", Telemetry.Json.Int h.Telemetry.Monitor.hs_count);
                ("p50_us", Telemetry.Json.Float h.Telemetry.Monitor.hs_p50);
                ("p95_us", Telemetry.Json.Float h.Telemetry.Monitor.hs_p95);
                ("p99_us", Telemetry.Json.Float h.Telemetry.Monitor.hs_p99);
              ]
      in
      Telemetry.Json.Obj
        [
          ("width", Telemetry.Json.Int p.pf_width);
          ("submitted", Telemetry.Json.Int s.Query.Par.submitted);
          ("completed", Telemetry.Json.Int s.Query.Par.completed);
          ("caller_helped", Telemetry.Json.Int s.Query.Par.caller_helped);
          ("queue_depth", Telemetry.Json.Int s.Query.Par.queue_depth);
          ("in_flight", Telemetry.Json.Int s.Query.Par.in_flight);
          ( "lane_tasks",
            Telemetry.Json.List
              (List.map (fun n -> Telemetry.Json.Int n) (Array.to_list s.Query.Par.lane_tasks)) );
          ( "utilization",
            Telemetry.Json.List
              (List.map
                 (fun n -> Telemetry.Json.Float (float_of_int n /. float_of_int completed))
                 (Array.to_list s.Query.Par.lane_tasks)) );
          ("task_wait_us", hist_json p.pf_wait);
          ("task_run_us", hist_json p.pf_run);
        ]

(* ------------------------------------------------------------------- *)
(* Machine-readable emission (--json): the PR-2 benchmark artifact      *)
(* ------------------------------------------------------------------- *)

(* Wall time (telemetry off, so timings are clean), then one traced run
   whose hexastore.probe.* counter deltas say which indices the query
   actually read. *)
let query_summary store (name, run) =
  let seconds, _ =
    Telemetry.with_enabled false (fun () ->
        Harness.time ~warmup:1 ~repeats:timing_repeats (fun () -> run store))
  in
  let probes =
    Telemetry.with_enabled true (fun () ->
        let before = Telemetry.Metrics.snapshot_counters ~prefix:"hexastore.probe." () in
        run store;
        let after = Telemetry.Metrics.snapshot_counters ~prefix:"hexastore.probe." () in
        List.filter_map
          (fun (k, v) ->
            let v0 = Option.value ~default:0 (List.assoc_opt k before) in
            if v > v0 then Some (k, Telemetry.Json.Int (v - v0)) else None)
          after)
  in
  (name, Telemetry.Json.Obj [ ("seconds", Telemetry.Json.Float seconds); ("probes", Telemetry.Json.Obj probes) ])

let workload_summary sized queries_of =
  match List.rev sized with
  | [] -> Telemetry.Json.Null
  | { Harness.n_triples; stores; dict } :: _ -> (
      match Harness.hexastore stores with
      | None -> Telemetry.Json.Null
      | Some h ->
          let store = Stores.Hexa h in
          Telemetry.Json.Obj
            [
              ("triples", Telemetry.Json.Int n_triples);
              ( "memory_mb",
                Telemetry.Json.Float (Harness.words_to_mb (Stores.memory_words store)) );
              ("queries", Telemetry.Json.Obj (List.map (query_summary store) (queries_of dict)));
            ])

let barton_queries dict =
  match Queries_barton.resolve_ids dict with
  | None -> []
  | Some ids ->
      [
        ("BQ1", fun s -> force_list (Queries_barton.bq1 s ids));
        ("BQ2", fun s -> force_list (Queries_barton.bq2 s ids));
        ("BQ3", fun s -> force_list (Queries_barton.bq3 s ids));
        ("BQ4", fun s -> force_list (Queries_barton.bq4 s ids));
        ("BQ5", fun s -> force_list (Queries_barton.bq5 s ids));
        ("BQ6", fun s -> force_list (Queries_barton.bq6 s ids));
        ("BQ7", fun s -> force_list (Queries_barton.bq7 s ids));
      ]

let lubm_queries dict =
  match Queries_lubm.resolve_ids dict with
  | None -> []
  | Some ids ->
      [
        ("LQ1", fun s -> force_list (Queries_lubm.lq1 s ids));
        ("LQ2", fun s -> force_list (Queries_lubm.lq2 s ids));
        ( "LQ3",
          fun s ->
            let out, inc = Queries_lubm.lq3 s ids in
            force_list out;
            force_list inc );
        ("LQ4", fun s -> force_list (Queries_lubm.lq4 s ids));
        ("LQ5", fun s -> force_list (Queries_lubm.lq5 s ids));
      ]

(* ------------------------------------------------------------------- *)
(* The PR-10 representation sweep (figures repr-memory / repr-wall)     *)
(* ------------------------------------------------------------------- *)

(* Each load workload's largest prefix rebuilt under every index
   representation — raw and frame-of-reference bit-packed —
   over the same shared dictionary, so the same resolved query ids run
   against every arm.  Memory comes from the exact per-structure
   accounting; wall time covers the full workload query suites plus the
   join figure's planned BGPs (the acceptance bar: >= 2.5x smaller with
   join wall within 1.3x of raw). *)

type repr_arm = {
  ra_repr : string;
  ra_memory_mb : float;
  ra_aggregate_s : float;
  ra_queries : (string * float) list;
}

type repr_workload = {
  rw_name : string;
  rw_triples : int;
  rw_arms : repr_arm list;
}

type repr_sweep = {
  rs_workloads : repr_workload list;
  rs_join_triples : int;
  rs_join : (string * float) list;  (* representation name, planned wall *)
}

let repr_kinds = Vectors.Sorted_ivec.[ Raw; Packed ]

let repr_cache : repr_sweep option ref = ref None

let rebuild_as kind h =
  let triples =
    Array.of_list (List.rev (Hexa.Hexastore.fold (fun tr acc -> tr :: acc) h []))
  in
  let fresh = Hexa.Hexastore.create ~dict:(Hexa.Hexastore.dict h) ~repr:kind () in
  ignore (Hexa.Hexastore.add_bulk_ids fresh triples);
  fresh

let repr_results env =
  match !repr_cache with
  | Some r -> r
  | None ->
      let workload rw_name sized queries_of =
        match List.rev sized with
        | [] -> None
        | { Harness.n_triples; stores; dict } :: _ ->
            Option.map
              (fun h ->
                let queries = queries_of dict in
                let arms =
                  List.map
                    (fun kind ->
                      let store = Stores.Hexa (rebuild_as kind h) in
                      let ra_queries =
                        List.map
                          (fun (qname, run) ->
                            let seconds, _ =
                              Telemetry.with_enabled false (fun () ->
                                  Harness.time ~warmup:1 ~repeats:timing_repeats (fun () ->
                                      run store))
                            in
                            (qname, seconds))
                          queries
                      in
                      {
                        ra_repr = Vectors.Sorted_ivec.kind_name kind;
                        ra_memory_mb = Harness.words_to_mb (Stores.memory_words store);
                        ra_aggregate_s = List.fold_left (fun a (_, s) -> a +. s) 0. ra_queries;
                        ra_queries;
                      })
                    repr_kinds
                in
                { rw_name; rw_triples = n_triples; rw_arms = arms })
              (Harness.hexastore stores)
      in
      let rs_join_triples, rs_join =
        match List.rev (Lazy.force env.barton) with
        | [] -> (0, [])
        | { Harness.stores; dict; n_triples } :: _ -> (
            match (Harness.hexastore stores, Queries_barton.resolve_ids dict) with
            | Some h, Some _ ->
                ( n_triples,
                  List.map
                    (fun kind ->
                      let store = Hexa.Store_sig.box_hexastore (rebuild_as kind h) in
                      let seconds =
                        List.fold_left
                          (fun acc (_, tps) ->
                            let s, _ =
                              Telemetry.with_enabled false (fun () ->
                                  Harness.time ~warmup:1 ~repeats:timing_repeats (fun () ->
                                      Query.Exec.count store (Query.Algebra.Bgp tps)))
                            in
                            acc +. s)
                          0. join_queries
                      in
                      (Vectors.Sorted_ivec.kind_name kind, seconds))
                    repr_kinds )
            | _ -> (0, []))
      in
      let r =
        {
          rs_workloads =
            List.filter_map Fun.id
              [
                workload "lubm" (Lazy.force env.lubm) lubm_queries;
                workload "barton" (Lazy.force env.barton) barton_queries;
              ];
          rs_join_triples;
          rs_join;
        }
      in
      repr_cache := Some r;
      r

let fig_repr env =
  let r = repr_results env in
  let mem_points =
    List.concat_map
      (fun w ->
        List.map
          (fun a ->
            {
              Harness.size = w.rw_triples;
              method_ = w.rw_name ^ "-" ^ a.ra_repr;
              seconds = a.ra_memory_mb;
            })
          w.rw_arms)
      r.rs_workloads
  in
  print_series ~figure:"repr-memory"
    ~title:"Index representation footprint per workload (MB, not seconds)" mem_points;
  let wall_points =
    List.concat_map
      (fun w ->
        List.map
          (fun a ->
            {
              Harness.size = w.rw_triples;
              method_ = w.rw_name ^ "-" ^ a.ra_repr;
              seconds = a.ra_aggregate_s;
            })
          w.rw_arms)
      r.rs_workloads
    @ List.map
        (fun (k, s) -> { Harness.size = r.rs_join_triples; method_ = "join-" ^ k; seconds = s })
        r.rs_join
  in
  print_series ~figure:"repr-wall"
    ~title:"Aggregate query wall time per index representation (workload suites + join BGPs)"
    wall_points

let repr_json env =
  let r = repr_results env in
  match r.rs_workloads with
  | [] -> Telemetry.Json.Null
  | _ ->
      let arm a =
        Telemetry.Json.Obj
          [
            ("memory_mb", Telemetry.Json.Float a.ra_memory_mb);
            ("aggregate_seconds", Telemetry.Json.Float a.ra_aggregate_s);
            ( "queries",
              Telemetry.Json.Obj
                (List.map (fun (q, s) -> (q, Telemetry.Json.Float s)) a.ra_queries) );
          ]
      in
      Telemetry.Json.Obj
        [
          ( "workloads",
            Telemetry.Json.Obj
              (List.map
                 (fun w ->
                   ( w.rw_name,
                     Telemetry.Json.Obj
                       (("triples", Telemetry.Json.Int w.rw_triples)
                       :: List.map (fun a -> (a.ra_repr, arm a)) w.rw_arms) ))
                 r.rs_workloads) );
          ( "join",
            Telemetry.Json.Obj
              (("triples", Telemetry.Json.Int r.rs_join_triples)
              :: List.map
                   (fun (k, s) ->
                     (k, Telemetry.Json.Obj [ ("aggregate_seconds", Telemetry.Json.Float s) ]))
                   r.rs_join) );
        ]

let figure_json (figure, title, points) =
  Telemetry.Json.Obj
    [
      ("figure", Telemetry.Json.String figure);
      ("title", Telemetry.Json.String title);
      ( "points",
        Telemetry.Json.List
          (List.map
             (fun { Harness.size; method_; seconds } ->
               Telemetry.Json.Obj
                 [
                   ("size", Telemetry.Json.Int size);
                   ("method", Telemetry.Json.String method_);
                   ("seconds", Telemetry.Json.Float seconds);
                 ])
             points) );
    ]

let join_json env =
  match join_results env with
  | [] -> Telemetry.Json.Null
  | results ->
      let arm a =
        Telemetry.Json.Obj
          [
            ("seconds", Telemetry.Json.Float a.arm_seconds);
            ("probes", Telemetry.Json.Int a.arm_probes);
          ]
      in
      Telemetry.Json.Obj
        [
          ("triples", Telemetry.Json.Int (List.hd results).jq_triples);
          ( "queries",
            Telemetry.Json.Obj
              (List.map
                 (fun r ->
                   ( r.jq,
                     Telemetry.Json.Obj
                       [
                         ("rows", Telemetry.Json.Int r.jq_rows);
                         ("nested", arm r.nested);
                         ("planned", arm r.planned);
                       ] ))
                 results) );
        ]

let emit_json ~mode ~path env =
  let overhead_triples, off_s, on_s = telemetry_overhead () in
  let json =
    Telemetry.Json.Obj
      [
        ("schema", Telemetry.Json.String "hexastore-bench/v1");
        ("pr", Telemetry.Json.Int 10);
        ("mode", Telemetry.Json.String (mode_name mode));
        ("join", join_json env);
        ("parallel", parallel_json env);
        ("pool", pool_json env);
        ("repr", repr_json env);
        ("profiling", profiling_json ~mode env);
        ( "workloads",
          Telemetry.Json.Obj
            [
              ("lubm", workload_summary (Lazy.force env.lubm) lubm_queries);
              ("barton", workload_summary (Lazy.force env.barton) barton_queries);
            ] );
        ( "telemetry_overhead",
          Telemetry.Json.Obj
            [
              ("triples", Telemetry.Json.Int overhead_triples);
              ("disabled_seconds", Telemetry.Json.Float off_s);
              ("enabled_seconds", Telemetry.Json.Float on_s);
              ("enabled_over_disabled", Telemetry.Json.Float (on_s /. off_s));
            ] );
        ("figures", Telemetry.Json.List (List.map figure_json (List.rev !collected)));
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Telemetry.Json.to_string ~indent:2 json);
      output_char oc '\n');
  Format.printf "# wrote %s@." path

(* ------------------------------------------------------------------- *)
(* Bechamel micro-benchmarks (one grouped test per figure)              *)
(* ------------------------------------------------------------------- *)

let bechamel_suite env =
  let open Bechamel in
  let sized_last l = List.nth l (List.length l - 1) in
  let barton = sized_last (Lazy.force env.barton) in
  let lubm = sized_last (Lazy.force env.lubm) in
  let barton_ids = Option.get (Queries_barton.resolve_ids barton.Harness.dict) in
  let lubm_ids = Option.get (Queries_lubm.resolve_ids lubm.Harness.dict) in
  let per_store sized run =
    List.map
      (fun store -> Test.make ~name:(Stores.name store) (Staged.stage (fun () -> run store)))
      sized.Harness.stores
  in
  let group name sized run = Test.make_grouped ~name (per_store sized run) in
  let tests =
    [
      group "fig3/BQ1" barton (fun s -> force_list (Queries_barton.bq1 s barton_ids));
      group "fig4/BQ2" barton (fun s -> force_list (Queries_barton.bq2 s barton_ids));
      group "fig5/BQ3" barton (fun s -> force_list (Queries_barton.bq3 s barton_ids));
      group "fig6/BQ4" barton (fun s -> force_list (Queries_barton.bq4 s barton_ids));
      group "fig7/BQ5" barton (fun s -> force_list (Queries_barton.bq5 s barton_ids));
      group "fig8/BQ6" barton (fun s -> force_list (Queries_barton.bq6 s barton_ids));
      group "fig9/BQ7" barton (fun s -> force_list (Queries_barton.bq7 s barton_ids));
      group "fig10/LQ1" lubm (fun s -> force_list (Queries_lubm.lq1 s lubm_ids));
      group "fig11/LQ2" lubm (fun s -> force_list (Queries_lubm.lq2 s lubm_ids));
      group "fig12/LQ3" lubm (fun s ->
          let o, i = Queries_lubm.lq3 s lubm_ids in
          force_list o;
          force_list i);
      group "fig13/LQ4" lubm (fun s -> force_list (Queries_lubm.lq4 s lubm_ids));
      group "fig14/LQ5" lubm (fun s -> force_list (Queries_lubm.lq5 s lubm_ids));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  Format.printf "# Bechamel OLS estimates (ns/run), monotonic clock@.";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.all
          (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
          instance raw
      in
      let rows = Hashtbl.fold (fun name res acc -> (name, res) :: acc) ols [] in
      List.iter
        (fun (name, res) ->
          match Analyze.OLS.estimates res with
          | Some [ ns ] -> Format.printf "%-36s %14.0f ns/run@." name ns
          | _ -> Format.printf "%-36s (no estimate)@." name)
        (List.sort compare rows))
    tests

(* ------------------------------------------------------------------- *)
(* CLI                                                                  *)
(* ------------------------------------------------------------------- *)

let figures =
  [
    ("fig3", fig3); ("fig4", fig4); ("fig5", fig5); ("fig6", fig6); ("fig7", fig7);
    ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("fig11", fig11); ("fig12", fig12);
    ("fig13", fig13); ("fig14", fig14); ("fig15", fig15);
    ("abl-load", abl_load); ("abl-gc", abl_gc); ("abl-join", abl_join); ("abl-join-kernel", abl_join_kernel);
    ("abl-dict", abl_dict);
    ("abl-share", abl_share); ("abl-star", abl_star); ("abl-partial", abl_partial);
    ("abl-cyclic", abl_cyclic); ("abl-usage", abl_usage); ("abl-telemetry", abl_telemetry);
    ("parallel", fig_parallel); ("repr", fig_repr);
  ]

let run_bench full smoke selected bechamel list_only json_path =
  if list_only then begin
    List.iter (fun (name, _) -> print_endline name) figures;
    0
  end
  else begin
    let mode = if smoke then Smoke else if full then Full else Quick in
    let env = make_env mode in
    Format.printf "# Hexastore benchmark harness — mode: %s@." (mode_name mode);
    if bechamel then bechamel_suite env
    else begin
      let to_run =
        match selected with
        | [] -> figures
        | names ->
            List.filter_map
              (fun n ->
                match List.assoc_opt n figures with
                | Some f -> Some (n, f)
                | None ->
                    Format.eprintf "unknown figure %S (use --list)@." n;
                    None)
              names
      in
      List.iter (fun (_, f) -> f env) to_run;
      Option.iter (fun path -> emit_json ~mode ~path env) json_path
    end;
    0
  end

let () =
  let open Cmdliner in
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Full-size sweeps (paper-scale prefixes; slower).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ] ~doc:"Tiny seconds-scale sweeps (CI smoke test; overrides --full).")
  in
  let figure =
    Arg.(
      value & opt_all string []
      & info [ "figure"; "f" ] ~docv:"ID" ~doc:"Run only this figure (repeatable); see --list.")
  in
  let bechamel =
    Arg.(value & flag & info [ "bechamel" ] ~doc:"Run the Bechamel micro-benchmark suite instead.")
  in
  let list_only = Arg.(value & flag & info [ "list" ] ~doc:"List figure ids and exit.") in
  let json_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "After the figures, write the whole run (figure series, per-query wall times and \
             index-probe counters, memory, telemetry overhead) as JSON to $(docv).")
  in
  let term = Term.(const run_bench $ full $ smoke $ figure $ bechamel $ list_only $ json_path) in
  let info =
    Cmd.info "hexastore-bench"
      ~doc:
        "Regenerate the figures of 'Hexastore: Sextuple Indexing for Semantic Web Data Management'"
  in
  exit (Cmd.eval' (Cmd.v info term))
