(* Path expressions (§4.3): following property chains without
   materialised path tables.

   Builds a collaboration graph — people, advisors, employers, cities —
   and follows multi-hop chains such as advisor/worksFor/locatedIn as
   property paths (Query.Ppath): each hop reads the sorted o-lists of
   the frontier's nodes and builds the next frontier with a single sort
   (§4.3's point about avoiding the O(n^2) materialisation of all path
   expressions).

   Run with:  dune exec examples/path_queries.exe *)

open Workloads

let person k = Rdf.Term.iri (Printf.sprintf "http://social.example.org/person/%d" k)
let org k = Rdf.Term.iri (Printf.sprintf "http://social.example.org/org/%d" k)
let city k = Rdf.Term.iri (Printf.sprintf "http://social.example.org/city/%d" k)
let p name = Rdf.Term.iri ("http://social.example.org/ns#" ^ name)

let build_graph ~people ~orgs ~cities =
  let rng = Prng.create 99 in
  let out = ref [] in
  let emit s pr o = out := Rdf.Triple.make s pr o :: !out in
  for k = 0 to orgs - 1 do
    emit (org k) (p "locatedIn") (city (k mod cities))
  done;
  for k = 0 to people - 1 do
    emit (person k) (p "worksFor") (org (Prng.int rng orgs));
    (* Advisors always have a smaller id: the graph is acyclic. *)
    if k > 0 && Prng.chance rng 0.7 then emit (person k) (p "advisor") (person (Prng.int rng k));
    if Prng.chance rng 0.4 then emit (person k) (p "knows") (person (Prng.int rng people))
  done;
  !out

let () =
  let triples = build_graph ~people:5_000 ~orgs:120 ~cities:12 in
  let h = Hexa.Hexastore.of_triples triples in
  let dict = Hexa.Hexastore.dict h in
  Format.printf "Collaboration graph: %d triples.@.@." (Hexa.Hexastore.size h);

  let ns = Rdf.Namespace.create () in
  Rdf.Namespace.add ns ~prefix:"so" ~iri:"http://social.example.org/ns#";
  let path expr = Query.Ppath.parse ~namespaces:ns expr in
  (* A fixed chain p1/.../pn is a sequence of properties. *)
  let chain names = path (String.concat "/" (List.map (( ^ ) "so:") names)) in
  let show_chain names =
    let seconds, pairs = Harness.time ~repeats:3 (fun () -> Query.Ppath.pairs h (chain names)) in
    Format.printf "%-34s %6d pairs, %d joins, %8.3f ms@."
      (String.concat "/" names) (List.length pairs) (List.length names - 1)
      (seconds *. 1000.)
  in

  Format.printf "--- Property chains (start, end) pair counts@.";
  show_chain [ "advisor" ];
  show_chain [ "advisor"; "worksFor" ];
  show_chain [ "advisor"; "worksFor"; "locatedIn" ];
  show_chain [ "advisor"; "advisor"; "worksFor"; "locatedIn" ];
  Format.printf "@.";

  (* From a single person: where do the people along my advisor chain
     work, and in which cities? *)
  let start = Option.get (Dict.Term_dict.find_term dict (person 4_999)) in
  let reachable = Query.Ppath.eval_from h ~start (chain [ "advisor"; "worksFor"; "locatedIn" ]) in
  Format.printf "--- person/4999's advisor's employer is located in:@.";
  Vectors.Sorted_ivec.iter
    (fun id -> Format.printf "  %s@." (Rdf.Term.to_string (Dict.Term_dict.decode_term dict id)))
    reachable;
  Format.printf "@.";

  (* Full property-path expressions: closures, alternatives, inverses —
     evaluated by frontier search over pso/pos, never materialised. *)
  Format.printf "--- Property-path expressions from person/4999@.";
  List.iter
    (fun expr ->
      let reached = Query.Ppath.eval_from h ~start (path expr) in
      Format.printf "  %-34s %5d nodes reachable@." expr (Vectors.Sorted_ivec.length reached))
    [
      "so:advisor";
      "so:advisor+";                      (* the whole advisor ancestry *)
      "so:advisor*/so:worksFor";          (* my and my ancestors' employers *)
      "(so:advisor|so:knows)+";           (* social closure *)
      "so:advisor+/so:worksFor/so:locatedIn";
    ];
  let boss_city = Query.Ppath.eval_from h ~start (path "so:advisor+/so:worksFor/so:locatedIn") in
  Format.printf "  advisor ancestry works in %d distinct cities@.@."
    (Vectors.Sorted_ivec.length boss_city);

  (* §4.3's quadratic blow-up, made concrete: materialising every
     sub-path of an n-hop chain as its own property would need
     (n-1)(n-2)/2 extra properties; following them on demand needs
     none. *)
  let chain = [ "advisor"; "advisor"; "worksFor"; "locatedIn" ] in
  let n = List.length chain in
  Format.printf
    "A %d-hop chain would need %d materialised path properties; the Hexastore follows it \
     with %d joins instead.@."
    n
    ((n - 1) * (n - 2) / 2)
    (n - 1)
