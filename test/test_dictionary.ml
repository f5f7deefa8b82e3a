(* Tests for the [dictionary] library: string interning and term-level
   encoding. *)

open Dict

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let test_dict_basic () =
  let d = Dictionary.create () in
  check_int "empty" 0 (Dictionary.size d);
  let a = Dictionary.encode d "alpha" in
  let b = Dictionary.encode d "beta" in
  check_int "ids dense from zero" 0 a;
  check_int "second id" 1 b;
  check_int "idempotent" a (Dictionary.encode d "alpha");
  check_int "size" 2 (Dictionary.size d);
  check_string "decode a" "alpha" (Dictionary.decode d a);
  check_string "decode b" "beta" (Dictionary.decode d b);
  check_bool "mem" true (Dictionary.mem d "alpha");
  check_bool "not mem" false (Dictionary.mem d "gamma");
  Alcotest.(check (option int)) "find" (Some 0) (Dictionary.find d "alpha");
  Alcotest.(check (option int)) "find misses without alloc" None (Dictionary.find d "gamma");
  check_int "find did not allocate" 2 (Dictionary.size d)

let test_dict_decode_errors () =
  let d = Dictionary.create () in
  ignore (Dictionary.encode d "x");
  Alcotest.check_raises "unknown id" (Invalid_argument "Dictionary.decode: unknown id 5")
    (fun () -> ignore (Dictionary.decode d 5));
  Alcotest.check_raises "negative id" (Invalid_argument "Dictionary.decode: unknown id -1")
    (fun () -> ignore (Dictionary.decode d (-1)))

(* The id space is 31 bits: the snapshot format and every store index
   assume ids in [0, 2^31). *)
let test_dict_id_limit () = check_int "max_ids" (1 lsl 31) Dictionary.max_ids

(* A term dictionary sized for fewer terms than it receives (a snapshot
   load sizes it from its term count) still grows. *)
let test_term_dict_initial_size () =
  List.iter
    (fun initial_size ->
      let d = Term_dict.create ~initial_size () in
      let terms = List.init 50 (fun i -> Rdf.Term.iri (Printf.sprintf "http://example.org/%d" i)) in
      List.iteri (fun i t -> check_int "dense id" i (Term_dict.encode_term d t)) terms;
      List.iteri
        (fun i t -> check_bool "decodes" true (Rdf.Term.equal t (Term_dict.decode_term d i)))
        terms)
    [ 0; 1; 50 ]

let test_dict_growth () =
  let d = Dictionary.create ~initial_size:2 () in
  for i = 0 to 9999 do
    check_int "sequential ids" i (Dictionary.encode d (string_of_int i))
  done;
  check_int "all kept" 10000 (Dictionary.size d);
  check_string "early decode survives growth" "0" (Dictionary.decode d 0);
  check_string "late decode" "9999" (Dictionary.decode d 9999)

let test_dict_iter_fold () =
  let d = Dictionary.create () in
  List.iter (fun s -> ignore (Dictionary.encode d s)) [ "a"; "b"; "c" ];
  let seen = ref [] in
  Dictionary.iter (fun id s -> seen := (id, s) :: !seen) d;
  Alcotest.(check (list (pair int string))) "iter order" [ (0, "a"); (1, "b"); (2, "c") ]
    (List.rev !seen);
  check_int "fold count" 3 (Dictionary.fold (fun _ _ n -> n + 1) d 0);
  check_bool "memory positive" true (Dictionary.memory_words d > 0)

let prop_dict_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip over random strings" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_bound 50) (string_size ~gen:printable (int_bound 20))))
    (fun strings ->
      let d = Dictionary.create () in
      let ids = List.map (Dictionary.encode d) strings in
      List.for_all2 (fun s id -> Dictionary.decode d id = s) strings ids)

let prop_dict_injective =
  QCheck.Test.make ~name:"distinct strings get distinct ids" ~count:300
    (QCheck.make QCheck.Gen.(pair (string_size (int_bound 10)) (string_size (int_bound 10))))
    (fun (a, b) ->
      let d = Dictionary.create () in
      let ia = Dictionary.encode d a and ib = Dictionary.encode d b in
      (a = b) = (ia = ib))

(* ------------------------------------------------------------------ *)
(* Term_dict                                                           *)
(* ------------------------------------------------------------------ *)

open Rdf

let term_t = Alcotest.testable Term.pp Term.equal
let triple_t = Alcotest.testable Triple.pp Triple.equal

let test_term_dict_roundtrip () =
  let d = Term_dict.create () in
  let terms =
    [
      Term.iri "http://x/a";
      Term.blank "b0";
      Term.string_literal "v";
      Term.literal ~lang:"en" "v";
      Term.int_literal 42;
    ]
  in
  let ids = List.map (Term_dict.encode_term d) terms in
  List.iteri
    (fun i id -> Alcotest.check term_t "roundtrip" (List.nth terms i) (Term_dict.decode_term d id))
    ids;
  check_int "five ids" 5 (Term_dict.size d)

let test_term_dict_distinguishes_kinds () =
  let d = Term_dict.create () in
  (* Same spelling, three different kinds of term: must get three ids. *)
  let i = Term_dict.encode_term d (Term.iri "http://x/v") in
  let l = Term_dict.encode_term d (Term.string_literal "http://x/v") in
  let b = Term_dict.encode_term d (Term.blank "v") in
  check_bool "iri <> literal" true (i <> l);
  check_bool "literal <> blank" true (l <> b);
  (* Literal with/without lang are distinct too. *)
  let plain = Term_dict.encode_term d (Term.string_literal "x") in
  let lang = Term_dict.encode_term d (Term.literal ~lang:"en" "x") in
  check_bool "plain <> lang" true (plain <> lang)

let test_term_dict_triples () =
  let d = Term_dict.create () in
  let t =
    Triple.make (Term.iri "http://x/s") (Term.iri "http://x/p") (Term.string_literal "o")
  in
  let enc = Term_dict.encode_triple d t in
  Alcotest.check triple_t "triple roundtrip" t (Term_dict.decode_triple d enc);
  (match Term_dict.find_triple d t with
  | Some enc' -> check_bool "find_triple finds" true (enc = enc')
  | None -> Alcotest.fail "find_triple missed");
  let unknown =
    Triple.make (Term.iri "http://x/s") (Term.iri "http://x/p") (Term.string_literal "nope")
  in
  check_bool "find_triple misses unknown" true (Term_dict.find_triple d unknown = None);
  check_int "find did not allocate" 3 (Term_dict.size d)

let test_term_dict_find () =
  let d = Term_dict.create () in
  Alcotest.(check (option int)) "find before" None (Term_dict.find_term d (Term.iri "http://x/a"));
  let id = Term_dict.encode_term d (Term.iri "http://x/a") in
  Alcotest.(check (option int)) "find after" (Some id) (Term_dict.find_term d (Term.iri "http://x/a"))

let gen_term =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun n -> Term.iri (Printf.sprintf "http://example.org/r%d" n)) (int_bound 50));
        (1, map (fun n -> Term.blank (Printf.sprintf "b%d" n)) (int_bound 10));
        (2, map Term.string_literal (string_size ~gen:printable (int_bound 15)));
        (1, map (fun n -> Term.literal ~lang:"fr" (string_of_int n)) (int_bound 50));
      ])

let prop_term_dict_roundtrip =
  QCheck.Test.make ~name:"term encode/decode roundtrip" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_bound 50) gen_term))
    (fun terms ->
      let d = Term_dict.create () in
      let ids = List.map (Term_dict.encode_term d) terms in
      List.for_all2 (fun t id -> Term.equal t (Term_dict.decode_term d id)) terms ids)

let prop_term_dict_stable =
  QCheck.Test.make ~name:"re-encoding returns the same id" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_bound 50) gen_term))
    (fun terms ->
      let d = Term_dict.create () in
      let first = List.map (Term_dict.encode_term d) terms in
      let second = List.map (Term_dict.encode_term d) terms in
      first = second)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "dictionary"
    [
      ( "dictionary",
        [
          Alcotest.test_case "basic" `Quick test_dict_basic;
          Alcotest.test_case "decode_errors" `Quick test_dict_decode_errors;
          Alcotest.test_case "growth" `Quick test_dict_growth;
          Alcotest.test_case "iter_fold" `Quick test_dict_iter_fold;
          Alcotest.test_case "id limit" `Quick test_dict_id_limit;
          qt prop_dict_roundtrip;
          qt prop_dict_injective;
        ] );
      ( "term_dict",
        [
          Alcotest.test_case "roundtrip" `Quick test_term_dict_roundtrip;
          Alcotest.test_case "initial_size" `Quick test_term_dict_initial_size;
          Alcotest.test_case "kinds" `Quick test_term_dict_distinguishes_kinds;
          Alcotest.test_case "triples" `Quick test_term_dict_triples;
          Alcotest.test_case "find" `Quick test_term_dict_find;
          qt prop_term_dict_roundtrip;
          qt prop_term_dict_stable;
        ] );
    ]
