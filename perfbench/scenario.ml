(* The three workloads: their data, store configuration and operation
   streams.  NOTES.md gives the reasons for each choice. *)

open Workloads

type atom = Oracle.atom = V of string | C of int

type kind = Lubm_point | Barton_scan | Lubm_update

let all = [ Lubm_point; Barton_scan; Lubm_update ]

let name = function
  | Lubm_point -> "lubm-point"
  | Barton_scan -> "barton-scan"
  | Lubm_update -> "lubm-update"

let of_name s = List.find_opt (fun k -> name k = s) all

let repr = function Barton_scan -> Vectors.Sorted_ivec.Packed | Lubm_point | Lubm_update -> Raw

(* Only the workload behind a delta writes, so on the others a read's
   answer depends on its text alone. *)
let uses_delta = function Lubm_update -> true | Lubm_point | Barton_scan -> false

(* Data sizes: the generators' defaults, or a few thousand triples for
   the self-test. *)
type scale = Full | Tiny

let generate kind scale ~seed =
  match (kind, scale) with
  | Barton_scan, Full -> Barton.generate (Barton.config ~seed ())
  | Barton_scan, Tiny -> Barton.generate (Barton.config ~subjects:400 ~seed ())
  | (Lubm_point | Lubm_update), Full -> Lubm.generate (Lubm.config ~seed ())
  | (Lubm_point | Lubm_update), Tiny ->
      Lubm.generate (Lubm.config ~universities:1 ~departments_per_university:1 ~seed ())

(* --- operations -------------------------------------------------------- *)

type txn = { adds : Rdf.Triple.t list; removes : Rdf.Triple.t list }

type op = Read of string * Oracle.query | Write of txn

let id dict term =
  match Dict.Term_dict.find_term dict term with
  | Some i -> i
  | None -> invalid_arg ("vocabulary term absent from the data: " ^ Rdf.Term.to_string term)

let iri dict s = id dict (Rdf.Term.iri s)

(* Subjects typed [cls], in id order. *)
let instances oracle dict cls =
  let out = ref [] in
  Oracle.matches oracle ~s:None ~p:(Some (iri dict Rdf.Namespace.rdf_type)) ~o:(Some (iri dict cls))
    (fun t -> out := t.Oracle.s :: !out);
  Array.of_list (List.sort compare !out)

let shuffled rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let q ?count ?(neq = []) vars alts = { Oracle.vars; count; alts; neq }

let read dict query = Read (Oracle.to_sparql dict query, query)

(* Write transactions: each inserts a new subject with a type and one
   link to an existing resource and, once [window] inserts are live,
   removes both triples of the oldest.  The live set stays the same size,
   so the store, and the answers of reads that see the writes, do not
   grow through the run.  Subject names cycle through [2 * window]: a
   name is reused only after its triples were removed, so after the
   first cycle the dictionary stops growing, and the store's size does
   not depend on how many writes a run completes. *)
type writer = {
  rng : Prng.t;
  prefix : string;
  cls : Rdf.Term.t;
  link : Rdf.Term.t;
  targets : int array;
  dict : Dict.Term_dict.t;
  live : Rdf.Triple.t list array;  (** a ring of the live inserts *)
  mutable oldest : int;
  mutable n_live : int;
  mutable written : int;
}

let writer ~rng ~prefix ~cls ~link ~window dict targets =
  { rng; prefix; cls = Rdf.Term.iri cls; link = Rdf.Term.iri link; targets; dict;
    live = Array.make window []; oldest = 0; n_live = 0; written = 0 }

(* The next transaction and the id of the resource it links to. *)
let next_write w =
  let k = w.written in
  w.written <- k + 1;
  let subject = Rdf.Term.iri (Printf.sprintf "%s%d" w.prefix (k mod (2 * Array.length w.live))) in
  let target = w.targets.(Prng.int w.rng (Array.length w.targets)) in
  let adds =
    [ Rdf.Triple.make subject (Rdf.Term.iri Rdf.Namespace.rdf_type) w.cls;
      Rdf.Triple.make subject w.link (Dict.Term_dict.decode_term w.dict target) ]
  in
  let window = Array.length w.live in
  let removes =
    if w.n_live < window then []
    else begin
      let r = w.live.(w.oldest mod window) in
      w.oldest <- w.oldest + 1;
      w.n_live <- w.n_live - 1;
      r
    end
  in
  w.live.((w.oldest + w.n_live) mod window) <- adds;
  w.n_live <- w.n_live + 1;
  ({ adds; removes }, target)

(* Writers for LUBM enrol new graduate students in courses; writers
   for Barton catalogue new Text records that record existing ones.
   [writers kind ~seed ~window dict oracle round] starts the writer of
   one round; each round writes subjects of its own. *)
let writers kind ~seed ~window dict oracle =
  let prefix, cls, link, targets =
    match kind with
    | Barton_scan ->
        ( "http://library.example.edu/record/bench", Barton.text_type, Barton.records_p,
          instances oracle dict Barton.text_type )
    | Lubm_point | Lubm_update ->
        ( Lubm.department ~u:0 ~d:0 ^ "/BenchStudent", Lubm.ub "GraduateStudent", Lubm.ub "takesCourse",
          instances oracle dict (Lubm.ub "Course") )
  in
  fun round ->
    writer ~rng:(Prng.create (seed + 3 + round)) ~prefix:(Printf.sprintf "%s%d-" prefix round) ~cls ~link
      ~window dict targets

(* lubm-point: incoming, outgoing and two-pattern reads around a course,
   student or professor.  The course join is LUBM query 1, the graduate
   students taking the course: its second pattern is merge-joined on
   ?x, galloping through the sorted list of all graduate students.  The kind and the shape are drawn uniformly and
   the entity Zipf-skewed within its kind, so the mix of query costs does
   not hinge on which few entities a seed makes hot. *)
let lubm_point ~seed dict oracle =
  let ub = Lubm.ub in
  let teacher_of = iri dict (ub "teacherOf") and takes = iri dict (ub "takesCourse") in
  let type_p = iri dict Rdf.Namespace.rdf_type and grad = iri dict (ub "GraduateStudent") in
  let kind i classes =
    let pool = Array.concat (List.map (fun c -> instances oracle dict (ub c)) classes) in
    (shuffled (Prng.create (seed + i)) pool, Prng.create (seed + 10 + i))
  in
  let kinds =
    [| kind 0 [ "Course" ]; kind 1 [ "GraduateStudent"; "UndergraduateStudent" ];
       kind 2 [ "FullProfessor"; "AssociateProfessor"; "AssistantProfessor" ] |]
  in
  let draw = Prng.create (seed + 20) in
  fun () ->
    let k = Prng.int draw 3 in
    let pool, zipf = kinds.(k) in
    let e = pool.(Prng.zipf zipf ~n:(Array.length pool) ~s:1.0) in
    read dict
      (match (Prng.int draw 3, k) with
      | 0, _ -> q [ "s"; "p" ] [ [ (V "s", V "p", C e) ] ]
      | 1, _ -> q [ "p"; "o" ] [ [ (C e, V "p", V "o") ] ]
      | _, 0 -> q [ "x" ] [ [ (V "x", C takes, C e); (V "x", C type_p, C grad) ] ]
      | _, 1 -> q [ "c"; "t" ] [ [ (C e, C takes, V "c"); (V "t", C teacher_of, V "c") ] ]
      | _ -> q [ "c"; "x"; "p" ] [ [ (C e, C teacher_of, V "c"); (V "x", V "p", V "c") ] ])

(* barton-scan: BQ1, BQ2, BQ5, BQ6 and BQ7, in turn. *)
let barton_scan dict =
  let type_p = iri dict Rdf.Namespace.rdf_type and text = iri dict Barton.text_type in
  let origin = iri dict Barton.origin_p and dlc = iri dict Barton.dlc in
  let records = iri dict Barton.records_p and point = iri dict Barton.point_p in
  let encoding = iri dict Barton.encoding_p in
  let end_point = id dict (Rdf.Term.string_literal "end") in
  let dlc_records = [ (V "s", C origin, C dlc); (V "s", C records, V "r") ] in
  let all_of_s = (V "s", V "p", V "o") in
  let queries =
    [| q [ "t" ] ~count:"s" [ [ (V "s", C type_p, V "t") ] ];
       q [ "p" ] ~count:"o" [ [ (V "s", C type_p, C text); all_of_s ] ];
       q [ "s"; "t" ] ~neq:[ ("t", text) ] [ dlc_records @ [ (V "r", C type_p, V "t") ] ];
       (* The shared pattern sits inside each branch: the executor joins
          a UNION with a following pattern by nested loops. *)
       q [ "p" ] ~count:"o"
         [ [ (V "s", C type_p, C text); all_of_s ];
           dlc_records @ [ (V "r", C type_p, C text); all_of_s ] ];
       q [ "s"; "e"; "t" ]
         [ [ (V "s", C point, C end_point); (V "s", C encoding, V "e"); (V "s", C type_p, V "t") ] ] |]
    |> Array.map (read dict)
  in
  let turn = ref (-1) in
  fun () ->
    incr turn;
    queries.(!turn mod Array.length queries)

(* lubm-update: writes and LQ1-shaped reads alternate; three reads in
   four go to one of the 32 courses written most recently.  A window of
   2048 live students outlasts the delta's buffers, so removals land on
   flushed triples as tombstones, and flushes recur all through the run. *)
let lubm_update ~seed dict oracle =
  let w = writers Lubm_update ~seed ~window:2048 dict oracle 0 in
  let hot = shuffled (Prng.create seed) w.targets in
  let pick = Prng.create (seed + 1) and zipf = Prng.create (seed + 2) in
  let recent = Array.make 32 0 and n_recent = ref 0 in
  let turn = ref 0 in
  fun () ->
    incr turn;
    if !turn land 1 = 1 then begin
      let txn, course = next_write w in
      recent.(!n_recent mod 32) <- course;
      incr n_recent;
      Write txn
    end
    else
      let c =
        if Prng.int pick 4 <> 0 then recent.(Prng.int pick (min !n_recent 32))
        else hot.(Prng.zipf zipf ~n:(Array.length hot) ~s:1.0)
      in
      read dict (q [ "s"; "p" ] [ [ (V "s", V "p", C c) ] ])

let ops kind ~seed dict oracle =
  match kind with
  | Lubm_point -> lubm_point ~seed dict oracle
  | Barton_scan -> barton_scan dict
  | Lubm_update -> lubm_update ~seed dict oracle
