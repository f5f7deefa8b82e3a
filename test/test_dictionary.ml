(* Tests for the mapping table: string interning ([Rdf.Dictionary]) and
   term-level encoding ([Dict.Term_dict]). *)

open Dict
module Dictionary = Rdf.Dictionary

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

(* [memory_words] is the table's exact size: within 0.5% of the words
   reachable from it, whether it grew from the default size or was
   sized up front (as a snapshot load sizes it). *)
let test_dict_memory_exact () =
  let n = 20_000 in
  let spell i = Printf.sprintf "<http://example.org/resource/%d>" i in
  let within what d =
    let reported = Dictionary.memory_words d and actual = Obj.reachable_words (Obj.repr d) in
    if abs (reported - actual) * 200 > actual then
      Alcotest.failf "%s: memory_words %d, reachable %d" what reported actual
  in
  let grown = Dictionary.create () in
  for i = 0 to n - 1 do
    ignore (Dictionary.encode grown (spell i))
  done;
  within "after growth" grown;
  let sized = Dictionary.create ~initial_size:n () in
  for i = 0 to n - 1 do
    ignore (Dictionary.encode sized (spell i))
  done;
  within "sized" sized;
  check_bool "a sized table is no larger" true
    (Dictionary.memory_words sized <= Dictionary.memory_words grown)

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

(* A text to cut ranges from: printable bytes, NULs and high bytes, so
   that ranges start and end anywhere, words straddle their edges, and
   lengths run from 0 past several words. *)
let gen_text =
  QCheck.Gen.(
    string_size
      ~gen:(frequency [ (6, printable); (1, return '\000'); (1, map Char.chr (int_range 128 255)) ])
      (int_range 0 80))

let range text a b =
  let n = String.length text in
  let pos = a mod (n + 1) in
  (pos, b mod (n - pos + 1))

(* Every lookup by range, or of an IRI by its body, gives what the same
   lookup of the copied spelling gives in a second table; both tables
   start at one entry, so most runs resize part-way. *)
let prop_range_probe =
  QCheck.Test.make ~name:"find/encode by range = find/encode of the copy" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(pair (Printf.sprintf "%S") (list (triple int int int)))
       QCheck.Gen.(pair gen_text (list_size (int_bound 60) (triple (int_bound 3) nat nat))))
    (fun (text, ops) ->
      let by_range = Dictionary.create ~initial_size:1 () and by_copy = Dictionary.create ~initial_size:1 () in
      let found = function None -> -1 | Some id -> id in
      List.for_all
        (fun (op, a, b) ->
          let pos, len = range text a b in
          let sub = String.sub text pos len in
          match op with
          | 0 -> Dictionary.encode_sub by_range text pos len = Dictionary.encode by_copy sub
          | 1 -> Dictionary.find_sub by_range text pos len = found (Dictionary.find by_copy sub)
          | 2 -> Dictionary.encode_iri by_range sub = Dictionary.encode by_copy ("<" ^ sub ^ ">")
          | _ -> Dictionary.find_iri by_range sub = found (Dictionary.find by_copy ("<" ^ sub ^ ">")))
        ops
      && Dictionary.size by_range = Dictionary.size by_copy
      && List.for_all
           (fun id -> Dictionary.decode by_range id = Dictionary.decode by_copy id)
           (List.init (Dictionary.size by_copy) Fun.id))

(* The hash fits the bits a slot keeps above the id (31 of them), and a
   range hashes as its copy does. *)
let prop_hash_bits =
  QCheck.Test.make ~name:"hash below 2^31, the same in place and copied" ~count:1000
    (QCheck.make QCheck.Gen.(triple gen_text nat nat))
    (fun (text, a, b) ->
      let pos, len = range text a b in
      let h = Dictionary.hash_sub text pos len in
      0 <= h && h < 1 lsl 31 && h = Dictionary.hash_sub (String.sub text pos len) 0 len)

(* Spellings whose hashes share their low 12 bits all start from one
   slot of any table up to 4,096 slots: one probe chain, walked from
   inside a larger text, through the resizes of a table that starts at
   one entry and in a table sized so it never resizes. *)
let test_shared_low_bits () =
  let spell i = Printf.sprintf "<http://example.org/r/%d>" i in
  let low i = Dictionary.hash_sub (spell i) 0 (String.length (spell i)) land 4095 in
  let target = low 0 in
  let group = List.filter (fun i -> low i = target) (List.init 200_000 Fun.id) in
  check_bool "a group shares its low bits" true (List.length group >= 20);
  let members, others = List.partition (fun i -> i mod 2 = 0) group in
  let text i = "xx" ^ spell i ^ "yy" in
  let body i = let s = spell i in String.sub s 1 (String.length s - 2) in
  List.iter
    (fun initial_size ->
      let d = Dictionary.create ~initial_size () in
      List.iteri
        (fun id i ->
          check_int "fresh id" id (Dictionary.encode_sub d (text i) 2 (String.length (spell i)));
          List.iteri
            (fun id' i' ->
              if id' <= id then check_int "found by range" id' (Dictionary.find_sub d (text i') 2 (String.length (spell i'))))
            members)
        members;
      List.iteri (fun id i -> check_int "found as an IRI" id (Dictionary.encode_iri d (body i))) members;
      List.iter
        (fun i ->
          check_int "absent by range" (-1) (Dictionary.find_sub d (text i) 2 (String.length (spell i)));
          check_int "absent as an IRI" (-1) (Dictionary.find_iri d (body i)))
        others;
      check_int "no id added" (List.length members) (Dictionary.size d))
    [ 1; 200 ]

(* Two spellings with the same 31 hash bits, equal but for their body's
   last word (the one read where the body ends): the probe reaches the
   first one's slot and must still tell them apart by their bytes.
   300,000 such spellings hold ~20 full collisions. *)
let test_full_hash_collision () =
  let spell i = Printf.sprintf "<http://e.org/r/x%08x>" i in
  let hash i = Dictionary.hash_sub (spell i) 0 (String.length (spell i)) in
  let seen = Hashtbl.create 1024 in
  let rec pair i =
    if i >= 300_000 then Alcotest.fail "no full hash collision"
    else
      match Hashtbl.find_opt seen (hash i) with
      | Some j -> (j, i)
      | None ->
          Hashtbl.add seen (hash i) i;
          pair (i + 1)
  in
  let a, b = pair 0 in
  let d = Dictionary.create () in
  check_int "first" 0 (Dictionary.encode d (spell a));
  check_int "second absent by range" (-1) (Dictionary.find_sub d (spell b) 0 (String.length (spell b)));
  check_int "second absent as an IRI" (-1)
    (Dictionary.find_iri d (String.sub (spell b) 1 (String.length (spell b) - 2)));
  check_int "second takes a fresh id" 1 (Dictionary.encode d (spell b));
  check_int "first still found" 0 (Dictionary.encode_iri d (String.sub (spell a) 1 (String.length (spell a) - 2)))

(* Every byte of a short spelling reaches the hash: the 17,576
   three-letter spellings (a one-byte body) take distinct hash bits, bar
   a chance collision or two among 2^31 values. *)
let test_short_spellings_spread () =
  let hashes = Hashtbl.create 32768 in
  for i = 0 to (26 * 26 * 26) - 1 do
    let s = String.init 3 (fun k -> Char.chr (Char.code 'a' + (i / [| 676; 26; 1 |].(k) mod 26))) in
    Hashtbl.replace hashes (Dictionary.hash_sub s 0 3) ()
  done;
  check_bool "distinct hashes" true (Hashtbl.length hashes >= (26 * 26 * 26) - 2)

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

(* A triple's new terms are numbered object, predicate, subject: the
   order every existing snapshot's ids follow. *)
let test_term_dict_triple_order () =
  let d = Term_dict.create () in
  let enc =
    Term_dict.encode_triple d
      (Triple.make (Term.iri "http://x/s") (Term.iri "http://x/p") (Term.string_literal "o"))
  in
  check_int "object first" 0 enc.o;
  check_int "then predicate" 1 enc.p;
  check_int "then subject" 2 enc.s;
  let enc =
    Term_dict.encode_triple d
      (Triple.make (Term.blank "b") (Term.iri "http://x/p") (Term.iri "http://x/s"))
  in
  check_int "known object keeps its id" 2 enc.o;
  check_int "known predicate keeps its id" 1 enc.p;
  check_int "new subject next" 3 enc.s

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
          Alcotest.test_case "memory_words exact" `Quick test_dict_memory_exact;
          Alcotest.test_case "shared low hash bits" `Quick test_shared_low_bits;
          Alcotest.test_case "full hash collision" `Quick test_full_hash_collision;
          Alcotest.test_case "short spellings spread" `Quick test_short_spellings_spread;
          qt prop_dict_roundtrip;
          qt prop_dict_injective;
          qt prop_range_probe;
          qt prop_hash_bits;
        ] );
      ( "term_dict",
        [
          Alcotest.test_case "roundtrip" `Quick test_term_dict_roundtrip;
          Alcotest.test_case "initial_size" `Quick test_term_dict_initial_size;
          Alcotest.test_case "kinds" `Quick test_term_dict_distinguishes_kinds;
          Alcotest.test_case "triples" `Quick test_term_dict_triples;
          Alcotest.test_case "triple id order" `Quick test_term_dict_triple_order;
          Alcotest.test_case "find" `Quick test_term_dict_find;
          qt prop_term_dict_roundtrip;
          qt prop_term_dict_stable;
        ] );
    ]
