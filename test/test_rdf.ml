(* Tests for the [rdf] library: terms, triples, namespaces, N-Triples and
   Turtle parsing, and the naive reference graph. *)

open Rdf

let term = Alcotest.testable Term.pp Term.equal
let triple_t = Alcotest.testable Triple.pp Triple.equal
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Term                                                                *)
(* ------------------------------------------------------------------ *)

let test_term_constructors () =
  Alcotest.check term "iri" (Term.iri "http://x/a") (Term.iri "http://x/a");
  Alcotest.check_raises "empty iri" (Invalid_argument "Term.iri: empty") (fun () ->
      ignore (Term.iri ""));
  (try
     ignore (Term.iri "http://x/a b");
     Alcotest.fail "iri with space accepted"
   with Invalid_argument _ -> ());
  ignore (Term.blank "b0");
  (try
     ignore (Term.blank "b 0");
     Alcotest.fail "blank with space accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Term.literal ~lang:"en" ~datatype:"http://x/dt" "v");
     Alcotest.fail "lang+datatype accepted"
   with Invalid_argument _ -> ())

(* Terms the constructors used to build with spellings that do not
   round-trip: an upper-case tag re-read lower-cased, IRIs whose
   backslash re-read as an escape, and tags or datatypes a parser
   refuses. *)
let test_term_canonical () =
  Alcotest.check term "tag lowercased" (Term.literal ~lang:"en" "x") (Term.literal ~lang:"EN" "x");
  check_string "tag spelling" "\"x\"@en-us" (Term.to_string (Term.literal ~lang:"En-US" "x"));
  let refused what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | t -> Alcotest.failf "%s: built %s" what (Term.to_string t)
  in
  refused "iri with \\u0041" (fun () -> Term.iri "http://e/a\\u0041");
  refused "iri with a backslash" (fun () -> Term.iri "http://e/a\\b");
  refused "empty tag" (fun () -> Term.literal ~lang:"" "x");
  refused "tag with a space" (fun () -> Term.literal ~lang:"e n" "x");
  refused "datatype with a space" (fun () -> Term.literal ~datatype:"a b" "x");
  refused "empty datatype" (fun () -> Term.typed_literal "x" ~datatype:"");
  (* An escape that spells a backslash is no IRI either. *)
  (try
     ignore (Ntriples.parse_term "<http://e/a\\u005Cb>");
     Alcotest.fail "escaped backslash in an IRI accepted"
   with Ntriples.Parse_error _ -> ());
  Alcotest.check term "escaped IRI" (Term.iri "http://e/aA") (Ntriples.parse_term "<http://e/a\\u0041>");
  check_bool "escaped IRI is not canonical" false (Ntriples.is_term_spelling "<http://e/a\\u0041>");
  (* Turtle resolves the same escapes instead of keeping a backslash. *)
  match Turtle.parse_string "<http://e/s> <http://e/p> <http://e/a\\u0041> ." with
  | [ tr ] -> Alcotest.check term "turtle escaped IRI" (Term.iri "http://e/aA") (Triple.object_ tr)
  | _ -> Alcotest.fail "turtle: one triple expected"

let test_term_predicates () =
  check_bool "is_iri" true (Term.is_iri (Term.iri "http://x/a"));
  check_bool "is_blank" true (Term.is_blank (Term.blank "b"));
  check_bool "is_literal" true (Term.is_literal (Term.string_literal "v"));
  Alcotest.(check (option string)) "as_iri" (Some "http://x/a") (Term.as_iri (Term.iri "http://x/a"));
  Alcotest.(check (option string)) "as_iri lit" None (Term.as_iri (Term.string_literal "v"));
  Alcotest.(check (option string)) "literal_value" (Some "v")
    (Term.literal_value (Term.string_literal "v"))

let test_term_order () =
  let i = Term.iri "http://x/a" and b = Term.blank "b" and l = Term.string_literal "v" in
  check_bool "iri < blank" true (Term.compare i b < 0);
  check_bool "blank < literal" true (Term.compare b l < 0);
  check_bool "reflexive" true (Term.compare l l = 0);
  check_bool "lang distinguishes" false
    (Term.equal (Term.literal ~lang:"en" "v") (Term.literal ~lang:"fr" "v"));
  check_bool "datatype distinguishes" false
    (Term.equal (Term.typed_literal "1" ~datatype:"http://x/a") (Term.string_literal "1"))

let test_term_to_string () =
  check_string "iri" "<http://x/a>" (Term.to_string (Term.iri "http://x/a"));
  check_string "blank" "_:b0" (Term.to_string (Term.blank "b0"));
  check_string "plain" "\"v\"" (Term.to_string (Term.string_literal "v"));
  check_string "lang" "\"v\"@en" (Term.to_string (Term.literal ~lang:"en" "v"));
  check_string "typed" "\"1\"^^<http://www.w3.org/2001/XMLSchema#integer>"
    (Term.to_string (Term.int_literal 1));
  check_string "escapes" "\"a\\\"b\\\\c\\nd\""
    (Term.to_string (Term.string_literal "a\"b\\c\nd"))

(* ------------------------------------------------------------------ *)
(* Triple                                                              *)
(* ------------------------------------------------------------------ *)

let t_abc = Triple.make (Term.iri "http://x/s") (Term.iri "http://x/p") (Term.iri "http://x/o")

let test_triple_make () =
  Alcotest.check term "subject" (Term.iri "http://x/s") (Triple.subject t_abc);
  Alcotest.check term "predicate" (Term.iri "http://x/p") (Triple.predicate t_abc);
  Alcotest.check term "object" (Term.iri "http://x/o") (Triple.object_ t_abc);
  (try
     ignore (Triple.make (Term.string_literal "v") (Term.iri "http://x/p") (Term.iri "http://x/o"));
     Alcotest.fail "literal subject accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Triple.make (Term.iri "http://x/s") (Term.blank "b") (Term.iri "http://x/o"));
     Alcotest.fail "blank predicate accepted"
   with Invalid_argument _ -> ())

let test_triple_order () =
  let t2 = Triple.make (Term.iri "http://x/s") (Term.iri "http://x/p") (Term.iri "http://x/z") in
  check_bool "s-p-o order" true (Triple.compare t_abc t2 < 0);
  check_string "to_string" "<http://x/s> <http://x/p> <http://x/o> ." (Triple.to_string t_abc)

(* ------------------------------------------------------------------ *)
(* Namespace                                                           *)
(* ------------------------------------------------------------------ *)

let test_namespace () =
  let t = Namespace.default () in
  check_string "expand ub" (Namespace.ub "Course") (Namespace.expand t "ub:Course");
  check_string "expand rdf" Namespace.rdf_type (Namespace.expand t "rdf:type");
  Alcotest.(check (option string)) "shorten" (Some "ub:Course")
    (Namespace.shorten t (Namespace.ub "Course"));
  Alcotest.(check (option string)) "shorten misses" None (Namespace.shorten t "urn:xyz");
  Alcotest.check_raises "unbound" Not_found (fun () -> ignore (Namespace.expand t "nope:x"));
  Namespace.add t ~prefix:"ex" ~iri:"http://example.org/";
  check_string "added prefix" "http://example.org/a" (Namespace.expand t "ex:a");
  Namespace.add t ~prefix:"ex" ~iri:"http://other.org/";
  check_string "rebind replaces" "http://other.org/a" (Namespace.expand t "ex:a")

let test_namespace_longest_match () =
  let t = Namespace.create () in
  Namespace.add t ~prefix:"a" ~iri:"http://x/";
  Namespace.add t ~prefix:"b" ~iri:"http://x/deep/";
  Alcotest.(check (option string)) "longest wins" (Some "b:leaf")
    (Namespace.shorten t "http://x/deep/leaf")

(* ------------------------------------------------------------------ *)
(* N-Triples                                                           *)
(* ------------------------------------------------------------------ *)

let test_nt_parse_simple () =
  let got = Ntriples.parse_line "<http://x/s> <http://x/p> <http://x/o> ." in
  Alcotest.(check (option triple_t)) "iri triple" (Some t_abc) got;
  Alcotest.(check (option triple_t)) "comment" None (Ntriples.parse_line "# comment");
  Alcotest.(check (option triple_t)) "blank line" None (Ntriples.parse_line "   ")

let test_nt_parse_literals () =
  let got = Ntriples.parse_line {|<http://x/s> <http://x/p> "hello" .|} in
  Alcotest.(check (option triple_t)) "plain literal"
    (Some (Triple.make (Term.iri "http://x/s") (Term.iri "http://x/p") (Term.string_literal "hello")))
    got;
  let got = Ntriples.parse_line {|<http://x/s> <http://x/p> "bonjour"@fr .|} in
  Alcotest.(check (option triple_t)) "lang literal"
    (Some (Triple.make (Term.iri "http://x/s") (Term.iri "http://x/p") (Term.literal ~lang:"fr" "bonjour")))
    got;
  let got = Ntriples.parse_line {|<http://x/s> <http://x/p> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .|} in
  Alcotest.(check (option triple_t)) "typed literal"
    (Some (Triple.make (Term.iri "http://x/s") (Term.iri "http://x/p") (Term.int_literal 1)))
    got

let test_nt_parse_blank () =
  let got = Ntriples.parse_line "_:b0 <http://x/p> _:b1 ." in
  Alcotest.(check (option triple_t)) "blank nodes"
    (Some (Triple.make (Term.blank "b0") (Term.iri "http://x/p") (Term.blank "b1")))
    got

let test_nt_escapes () =
  check_string "tab/newline" "a\tb\nc" (Ntriples.unescape {|a\tb\nc|});
  check_string "quote/backslash" "a\"b\\c" (Ntriples.unescape {|a\"b\\c|});
  check_string "u escape" "é" (Ntriples.unescape {|é|});
  check_string "U escape" "𝄞" (Ntriples.unescape {|\U0001D11E|});
  let got = Ntriples.parse_line {|<http://x/s> <http://x/p> "a\"b\nc" .|} in
  (match got with
  | Some t -> Alcotest.(check (option string)) "escaped literal" (Some "a\"b\nc")
      (Term.literal_value (Triple.object_ t))
  | None -> Alcotest.fail "no triple")

let test_nt_errors () =
  let expect_error text =
    match Ntriples.parse_line text with
    | exception Ntriples.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted %S" text
  in
  expect_error "<http://x/s> <http://x/p> <http://x/o>";      (* missing dot *)
  expect_error "<http://x/s> <http://x/p> .";                 (* missing object *)
  expect_error {|<http://x/s> "lit" <http://x/o> .|};         (* literal predicate *)
  expect_error "<http://x/s <http://x/p> <http://x/o> .";     (* unterminated iri *)
  expect_error {|<http://x/s> <http://x/p> "unterminated .|};
  expect_error "<http://x/s> <http://x/p> <http://x/o> . extra";
  expect_error {|<http://x/s> <http://x/p> "bad\qescape" .|}

let test_nt_error_line_numbers () =
  let doc = "<http://x/s> <http://x/p> <http://x/o> .\nbroken line\n" in
  match Ntriples.parse_string doc with
  | exception Ntriples.Parse_error (line, _) -> check_int "line number" 2 line
  | _ -> Alcotest.fail "no error"

(* "\r\n", "\n" and a lone "\r" each end one line, in every entry
   point and in the line numbers of its errors. *)
let test_nt_line_ends () =
  let t = "<http://a> <http://b> <http://c> ." in
  let abc = Triple.make (Term.iri "http://a") (Term.iri "http://b") (Term.iri "http://c") in
  List.iter
    (fun eol ->
      let doc = t ^ eol ^ "# c" ^ eol ^ eol ^ t ^ " # c" ^ eol in
      Alcotest.(check (list triple_t)) (Printf.sprintf "parse_string %S" eol) [ abc; abc ] (Ntriples.parse_string doc);
      Alcotest.(check (option triple_t)) (Printf.sprintf "parse_line %S" eol) (Some abc)
        (Ntriples.parse_line (t ^ eol));
      let path = Filename.temp_file "hexastore_eol" ".nt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc -> output_string oc doc);
          Alcotest.(check (list triple_t)) (Printf.sprintf "load_file %S" eol) [ abc; abc ] (Ntriples.load_file path)))
    [ "\n"; "\r\n"; "\r" ];
  List.iter
    (fun (doc, line) ->
      match Ntriples.parse_string doc with
      | exception Ntriples.Parse_error (l, _) -> check_int (Printf.sprintf "error line in %S" doc) line l
      | _ -> Alcotest.failf "accepted %S" doc)
    [
      (t ^ "\r\nbroken\r\n", 2);
      (t ^ "\r" ^ t ^ "\rbroken", 3);
      ("\r\n\r\nbroken", 3);
      ("\n\rbroken", 3);
      ("\r\rbroken", 3);
      (t ^ "\n\r\n\rbroken", 4);
      ({|<http://a> <http://b> "split|} ^ "\r" ^ {|line" .|}, 1);
    ];
  match Ntriples.parse_line (t ^ "\n" ^ t) with
  | exception Ntriples.Parse_error _ -> ()
  | _ -> Alcotest.fail "parse_line accepted two lines"

let test_nt_roundtrip_doc () =
  let doc =
    "# a comment\n\
     <http://x/s> <http://x/p> <http://x/o> .\n\
     \n\
     _:b <http://x/p> \"v\"@en . # trailing comment\n"
  in
  let triples = Ntriples.parse_string doc in
  check_int "two triples" 2 (List.length triples);
  let printed = Ntriples.print_string triples in
  let reparsed = Ntriples.parse_string printed in
  Alcotest.(check (list triple_t)) "roundtrip" triples reparsed

let test_nt_file_io () =
  let path = Filename.temp_file "hexastore_test" ".nt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let triples = [ t_abc; Triple.make (Term.blank "x") (Term.iri "http://x/p") (Term.string_literal "v") ] in
      Ntriples.save_file path triples;
      Alcotest.(check (list triple_t)) "file roundtrip" triples (Ntriples.load_file path))

(* Literal values drawn to stress the escaping path: every character the
   N-Triples grammar forces an escape for (quote, backslash, newline, CR,
   tab), the other one-letter escapes' characters (backspace, form feed,
   apostrophe), plain printables, and raw multi-byte UTF-8 (passed
   through unescaped by the serializers). *)
let gen_literal_value =
  let open QCheck.Gen in
  let nasty =
    oneofl [ "\""; "\\"; "\n"; "\r"; "\t"; "\b"; "\012"; "'"; "\\n"; "a\"b\\c"; "é"; "𝄞"; "mixé\td"; "" ]
  in
  frequency
    [
      (3, string_size ~gen:printable (int_bound 12));
      (2, map (String.concat "") (list_size (int_bound 4) nasty));
      (1, return "tricky\"\\\n\tvalue");
    ]

(* Parsers lowercase language tags (BCP 47 tags are case-insensitive), so
   only lowercase spellings round-trip bit-for-bit. *)
let gen_lang = QCheck.Gen.oneofl [ "en"; "en-us"; "fr"; "de-ch"; "zh-hans"; "x-a-very-long-tag" ]

let gen_datatype =
  QCheck.Gen.oneofl
    [
      "http://www.w3.org/2001/XMLSchema#string";
      "http://www.w3.org/2001/XMLSchema#token";
      "http://example.org/dt#custom";
      "urn:example:datatype";
    ]

let gen_term =
  let open QCheck.Gen in
  let name = map (fun n -> Printf.sprintf "n%d" n) (int_bound 20) in
  frequency
    [
      (4, map (fun n -> Term.iri ("http://example.org/" ^ n)) name);
      (1, map Term.blank name);
      (3, map Term.string_literal gen_literal_value);
      (2, map2 (fun lang v -> Term.literal ~lang v) gen_lang gen_literal_value);
      (2, map2 (fun dt v -> Term.typed_literal v ~datatype:dt) gen_datatype gen_literal_value);
      (1, map Term.int_literal (int_bound 1000));
    ]

let gen_triple =
  QCheck.Gen.(
    map3 (fun s p o -> Triple.make s p o)
      (frequency [ (3, map (fun n -> Term.iri ("http://example.org/s" ^ string_of_int n)) (int_bound 20)); (1, map (fun n -> Term.blank ("b" ^ string_of_int n)) (int_bound 5)) ])
      (map (fun n -> Term.iri ("http://example.org/p" ^ string_of_int n)) (int_bound 10))
      gen_term)

(* Term-level round-trip: [Ntriples.parse_term] documents itself as the
   inverse of [Term.to_string]; hold it to that over the full generator,
   escapes, language tags and typed literals included. *)
let prop_term_roundtrip =
  QCheck.Test.make ~name:"parse_term (to_string t) = t" ~count:500
    (QCheck.make ~print:Term.to_string gen_term)
    (fun t ->
      match Ntriples.parse_term (Term.to_string t) with
      | t' -> Term.equal t t'
      | exception Ntriples.Parse_error (_, msg) ->
          QCheck.Test.fail_reportf "%S failed to reparse: %s" (Term.to_string t) msg)

(* Canonical spellings.  Strings drawn from the characters that matter
   to the N-Triples term grammar, and single-character edits of real
   spellings, so both sides of the equivalence come up often. *)
let spelling_chars = "<>\"\\@^_:.-aAzEn0u \t\n"

let gen_spelling_char = QCheck.Gen.(map (String.get spelling_chars) (int_bound (String.length spelling_chars - 1)))

let gen_mutated_spelling =
  let open QCheck.Gen in
  let edit s =
    map3
      (fun op at c ->
        let n = String.length s in
        let at = if n = 0 then 0 else at mod (n + 1) in
        match op with
        | 0 -> String.sub s 0 at ^ String.make 1 c ^ String.sub s at (n - at)
        | 1 when at < n -> String.sub s 0 at ^ String.sub s (at + 1) (n - at - 1)
        | _ when at < n -> String.sub s 0 at ^ String.make 1 c ^ String.sub s (at + 1) (n - at - 1)
        | _ -> s)
      (int_bound 2) nat gen_spelling_char
  in
  gen_term >>= fun t ->
  int_bound 2 >>= fun k ->
  let rec go k s = if k = 0 then return s else edit s >>= go (k - 1) in
  go k (Term.to_string t)

let gen_spelling =
  QCheck.Gen.(
    frequency
      [
        (2, string_size ~gen:gen_spelling_char (int_bound 10));
        (3, gen_mutated_spelling);
        (1, string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 12));
      ])

let respells s = match Ntriples.parse_term s with t -> Term.to_string t = s | exception Ntriples.Parse_error _ -> false

let prop_is_term_spelling =
  QCheck.Test.make ~name:"is_term_spelling s = (to_string (parse_term s) = s)" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_spelling)
    (fun s -> Ntriples.is_term_spelling s = respells s)

(* Constructor arguments from the same characters: whatever a
   constructor accepts spells canonically and parses back to itself. *)
let prop_constructed_roundtrip =
  let args = QCheck.Gen.(string_size ~gen:gen_spelling_char (int_range 0 6)) in
  QCheck.Test.make ~name:"constructed terms: parse_term (to_string t) = t" ~count:2000
    (QCheck.make
       ~print:(fun (k, a, b) -> Printf.sprintf "constructor %d %S %S" k a b)
       QCheck.Gen.(triple (int_bound 4) args args))
    (fun (k, a, b) ->
      let build () =
        match k with
        | 0 -> Term.iri a
        | 1 -> Term.blank a
        | 2 -> Term.literal ~lang:a b
        | 3 -> Term.literal ~datatype:a b
        | _ -> Term.string_literal b
      in
      match build () with
      | exception Invalid_argument _ -> true
      | t -> (
          let s = Term.to_string t in
          Ntriples.is_term_spelling s
          &&
          match Ntriples.parse_term s with
          | t' -> Term.equal t t'
          | exception Ntriples.Parse_error (_, msg) -> QCheck.Test.fail_reportf "%S: %s" s msg))

let arbitrary_triples = QCheck.make ~print:(fun l -> Ntriples.print_string l) QCheck.Gen.(list_size (int_bound 30) gen_triple)

let prop_nt_roundtrip =
  QCheck.Test.make ~name:"ntriples print/parse roundtrip" ~count:300 arbitrary_triples
    (fun triples ->
      let printed = Ntriples.print_string triples in
      let reparsed = Ntriples.parse_string printed in
      List.length reparsed = List.length triples
      && List.for_all2 Triple.equal triples reparsed)

(* Documents as another writer might lay them out.  Each term is
   spelled with random escapes (any character of an IRI or a literal
   as \u or \U, a literal's characters also with their one-letter
   escapes) and random-case language tags; statements sit among
   comments and blank lines, with spaces and tabs between the terms and
   LF, CRLF or lone-CR line ends.  [bad] puts a malformed statement on
   one line.  Returns the lines (content, line end) and their text. *)
let spell_term st (t : Term.t) =
  let buf = Buffer.create 32 in
  let pick n = Random.State.int st n in
  let chars ~literal s =
    let i = ref 0 in
    while !i < String.length s do
      let d = String.get_utf_8_uchar s !i in
      let len = Uchar.utf_decode_length d and u = Uchar.to_int (Uchar.utf_decode_uchar d) in
      let short =
        match Char.unsafe_chr (if u < 128 then u else 0) with
        | '\t' -> Some 't' | '\b' -> Some 'b' | '\n' -> Some 'n' | '\r' -> Some 'r'
        | '\012' -> Some 'f' | ('"' | '\'' | '\\') as c -> Some c | _ -> None
      in
      let must = literal && List.mem u [ 0x22; 0x5C; 0x0A; 0x0D ] in
      (match (pick 6, short) with
      | r, _ when (r < 3 && not must) || not (Uchar.utf_decode_is_valid d) ->
          Buffer.add_string buf (String.sub s !i len)
      | 3, Some c when literal -> Printf.bprintf buf "\\%c" c
      | 4, _ when u <= 0xFFFF -> Printf.bprintf buf "\\u%04X" u
      | _ -> Printf.bprintf buf "\\U%08X" u);
      i := !i + len
    done
  in
  let recase s = String.map (fun c -> if pick 2 = 0 then Char.uppercase_ascii c else c) s in
  (match t with
  | Iri s ->
      Buffer.add_char buf '<';
      chars ~literal:false s;
      Buffer.add_char buf '>'
  | Blank l -> Buffer.add_string buf ("_:" ^ l)
  | Literal { value; lang; datatype } -> (
      Buffer.add_char buf '"';
      chars ~literal:true value;
      Buffer.add_char buf '"';
      match (lang, datatype) with
      | Some l, _ -> Buffer.add_string buf ("@" ^ recase l)
      | None, Some dt ->
          Buffer.add_string buf "^^<";
          chars ~literal:false dt;
          Buffer.add_char buf '>'
      | None, None -> ()));
  Buffer.contents buf

let bad_statements =
  [|
    "<http://x/s> <http://x/p> .";
    {|<http://x/s> "lit" <http://x/o> .|};
    "<http://x/s <http://x/p> <http://x/o> .";
    {|<http://x/s> <http://x/p> "bad\qescape" .|};
    "<http://x/s> <http://x/p> <http://x/o> . extra";
    {|_:b <http://x/p> "open|};
  |]

let layout ~seed ?bad triples =
  let st = Random.State.make [| seed |] in
  let pick n = Random.State.int st n in
  let ws () = [| ""; " "; "\t"; " \t " |].(pick 4) in
  let filler () =
    match pick 4 with
    | 0 -> [ ws () ^ "# <not> \"a\" _:statement ." ]
    | 1 -> [ ws () ]
    | _ -> []
  in
  let statement (t : Triple.t) =
    let after_object = match t.o with Blank _ -> " " ^ ws () | _ -> ws () in
    ws () ^ spell_term st t.s ^ ws () ^ spell_term st t.p ^ ws () ^ spell_term st t.o
    ^ after_object ^ "." ^ ws () ^ if pick 3 = 0 then "# trailing" else ""
  in
  let contents =
    List.concat_map (fun t -> filler () @ [ statement t ]) triples @ filler ()
  in
  let contents =
    match bad with
    | Some k when contents <> [] ->
        let k = k mod List.length contents in
        List.mapi (fun i c -> if i = k then bad_statements.(pick (Array.length bad_statements)) else c) contents
    | _ -> contents
  in
  (* A blank line that ends in "\n" right after a lone "\r" would make
     one CRLF of the two line ends: give it a CRLF of its own. *)
  let _, rev =
    List.fold_left
      (fun (prev, acc) content ->
        let eol = [| "\n"; "\r\n"; "\r" |].(pick 3) in
        let eol = if prev = "\r" && content = "" && eol = "\n" then "\r\n" else eol in
        (eol, (content, eol) :: acc))
      ("", []) contents
  in
  let lines =
    match rev with
    | (content, _) :: rest when pick 2 = 0 -> List.rev ((content, "") :: rest)
    | _ -> List.rev rev
  in
  (lines, String.concat "" (List.map (fun (c, e) -> c ^ e) lines))

let gen_doc = QCheck.Gen.(pair (list_size (int_bound 25) gen_triple) int)

let print_doc (triples, seed) = String.escaped (snd (layout ~seed triples))

let prop_nt_layout_roundtrip =
  QCheck.Test.make ~name:"parse_string of laid-out, escaped triples gives them back" ~count:500
    (QCheck.make ~print:print_doc gen_doc)
    (fun (triples, seed) ->
      let reparsed = Ntriples.parse_string (snd (layout ~seed triples)) in
      List.equal Triple.equal triples reparsed)

(* Every entry point reads a document the same way: parse_string,
   parse_line over its lines, of_channel over a file and parse_seq over
   [input_line]-style lines give the same triples, or the same
   [Parse_error] line on the seeded bad line. *)
let prop_nt_entry_points =
  let result f = match f () with ts -> Ok ts | exception Ntriples.Parse_error (l, _) -> Error l in
  let same a b =
    match (a, b) with
    | Ok x, Ok y -> List.equal Triple.equal x y
    | Error x, Error y -> x = y
    | _ -> false
  in
  QCheck.Test.make ~name:"parse_string = parse_line per line = of_channel = parse_seq" ~count:300
    (QCheck.make
       ~print:(fun (doc, bad) -> Printf.sprintf "%s bad=%s" (print_doc doc) (Option.fold ~none:"-" ~some:string_of_int bad))
       QCheck.Gen.(pair gen_doc (opt nat)))
    (fun ((triples, seed), bad) ->
      let lines, text = layout ~seed ?bad triples in
      let expected =
        match List.find_index (fun (c, _) -> Array.mem c bad_statements) lines with
        | Some i -> Error (i + 1)
        | None -> Ok triples
      in
      let by_line () =
        List.concat
          (List.mapi
             (fun i (c, e) -> Option.to_list (Ntriples.parse_line ~line:(i + 1) (c ^ e)))
             lines)
      in
      let by_channel () =
        let path = Filename.temp_file "hexastore_layout" ".nt" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Out_channel.with_open_bin path (fun oc -> output_string oc text);
            In_channel.with_open_bin path Ntriples.of_channel)
      in
      let by_seq () = List.of_seq (Ntriples.parse_seq (List.to_seq (String.split_on_char '\n' text))) in
      List.for_all
        (fun (name, got) ->
          same expected got
          || QCheck.Test.fail_reportf "%s disagrees (%s)" name
               (match got with Ok ts -> Printf.sprintf "%d triples" (List.length ts) | Error l -> Printf.sprintf "line %d" l))
        [
          ("parse_string", result (fun () -> Ntriples.parse_string text));
          ("parse_line", result by_line);
          ("of_channel", result by_channel);
          ("parse_seq", result by_seq);
        ])

(* [parse_string] makes one term per distinct IRI spelling: every
   occurrence of an IRI, as subject, predicate, object or datatype, is
   the same block. *)
let test_nt_shared_iris () =
  let st = Random.State.make [| 7 |] in
  let triples = QCheck.Gen.(generate ~rand:st ~n:400 gen_triple) in
  let parsed = Ntriples.parse_string (Ntriples.print_string triples) in
  let seen = Hashtbl.create 64 and occurrences = ref 0 in
  let visit (t : Term.t) =
    match t with
    | Iri s ->
        incr occurrences;
        (match Hashtbl.find_opt seen s with
        | None -> Hashtbl.add seen s t
        | Some first -> if first != t then Alcotest.failf "two terms for <%s>" s)
    | Blank _ | Literal _ -> ()
  in
  List.iter (fun (t : Triple.t) -> visit t.s; visit t.p; visit t.o) parsed;
  check_bool "IRIs repeat" true (!occurrences > 2 * Hashtbl.length seen)

(* A [read] that hands out the text a few bytes at a time, so reads end
   anywhere: inside a term, between a "\r" and its "\n". *)
let short_reads st text =
  let pos = ref 0 in
  fun b off len ->
    let n = min (min len (1 + Random.State.int st 7)) (String.length text - !pos) in
    Bytes.blit_string text !pos b off n;
    pos := !pos + n;
    n

(* The text -> ids loader reads a laid-out document as [parse_string]
   and [encode_triple] do: the same ids in the same order, the same
   spellings, the same snapshot bytes, or the same [Parse_error] line. *)
let prop_nt_loader =
  let raw = Vectors.Sorted_ivec.Raw in
  let snapshot h =
    let path = Filename.temp_file "hexastore_loader" ".snap" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Hexa.Snapshot.save h path;
        In_channel.with_open_bin path In_channel.input_all)
  in
  QCheck.Test.make ~name:"text -> ids loader = parse_string + encode_triple" ~count:300
    (QCheck.make
       ~print:(fun (doc, bad) -> Printf.sprintf "%s bad=%s" (print_doc doc) (Option.fold ~none:"-" ~some:string_of_int bad))
       QCheck.Gen.(pair gen_doc (opt nat)))
    (fun ((triples, seed), bad) ->
      let _, text = layout ~seed ?bad triples in
      let st = Random.State.make [| seed |] in
      let loaded = Dict.Term_dict.create () and ids = ref [] in
      let load () = Dict.Term_dict.encode_ntriples loaded (short_reads st text) (fun s p o -> ids := (s, p, o) :: !ids) in
      let result f = match f () with x -> Ok x | exception Ntriples.Parse_error (l, _) -> Error l in
      match (result (fun () -> Ntriples.parse_string text), result load) with
      | Error l, Error l' -> l = l' || QCheck.Test.fail_reportf "line %d, loader line %d" l l'
      | Error l, Ok () -> QCheck.Test.fail_reportf "loader accepted a bad line %d" l
      | Ok _, Error l -> QCheck.Test.fail_reportf "loader refused line %d" l
      | Ok parsed, Ok () ->
          let dict = Dict.Term_dict.create () in
          let encoded = List.map (fun t -> let e = Dict.Term_dict.encode_triple dict t in (e.s, e.p, e.o)) parsed in
          let spellings d = List.init (Dict.Term_dict.size d) (Dict.Term_dict.spelling d) in
          let from_text = Hexa.Hexastore.load_ntriples ~repr:raw (short_reads st text) in
          let from_terms = Hexa.Hexastore.create ~repr:raw () in
          ignore (Hexa.Hexastore.add_list from_terms parsed);
          (List.rev !ids = encoded || QCheck.Test.fail_report "ids differ")
          && (spellings loaded = spellings dict || QCheck.Test.fail_report "spellings differ")
          && (snapshot from_text = snapshot from_terms || QCheck.Test.fail_report "snapshots differ"))

(* A line longer than the loader's read buffer makes it grow: the line
   is read whole, with its neighbours. *)
let test_nt_loader_long_line () =
  let long = Term.string_literal (String.make 200_000 'x') in
  let triples = [ t_abc; Triple.make (Term.iri "http://x/s") (Term.iri "http://x/p") long; t_abc ] in
  let text = Ntriples.print_string triples in
  let pos = ref 0 in
  let read b off len =
    let n = min len (String.length text - !pos) in
    Bytes.blit_string text !pos b off n;
    pos := !pos + n;
    n
  in
  let d = Dict.Term_dict.create () and ids = ref [] in
  Dict.Term_dict.encode_ntriples d read (fun s p o -> ids := (s, p, o) :: !ids);
  check_int "three statements" 3 (List.length !ids);
  let _, _, o = List.nth !ids 1 in
  check_bool "the long literal" true (Term.equal long (Dict.Term_dict.decode_term d o))

(* ------------------------------------------------------------------ *)
(* Turtle                                                              *)
(* ------------------------------------------------------------------ *)

let test_turtle_basic () =
  let doc =
    {|@prefix ex: <http://example.org/> .
      ex:alice ex:knows ex:bob .
      ex:bob a ex:Person .|}
  in
  let triples = Turtle.parse_string doc in
  check_int "two triples" 2 (List.length triples);
  Alcotest.check triple_t "expansion"
    (Triple.make (Term.iri "http://example.org/alice") (Term.iri "http://example.org/knows")
       (Term.iri "http://example.org/bob"))
    (List.nth triples 0);
  Alcotest.check triple_t "a = rdf:type"
    (Triple.make (Term.iri "http://example.org/bob") (Term.iri Namespace.rdf_type)
       (Term.iri "http://example.org/Person"))
    (List.nth triples 1)

let test_turtle_lists () =
  let doc =
    {|@prefix ex: <http://example.org/> .
      ex:a ex:p ex:o1 , ex:o2 ;
           ex:q "v"@en ;
           ex:r 42 .|}
  in
  let triples = Turtle.parse_string doc in
  check_int "four triples" 4 (List.length triples);
  let objs =
    List.filter_map
      (fun (t : Triple.t) ->
        if Term.equal t.p (Term.iri "http://example.org/p") then Some t.o else None)
      triples
  in
  check_int "object list" 2 (List.length objs);
  let r =
    List.find (fun (t : Triple.t) -> Term.equal t.p (Term.iri "http://example.org/r")) triples
  in
  Alcotest.check term "integer literal" (Term.int_literal 42) r.o

let test_turtle_base_and_sparql_prefix () =
  let doc =
    {|BASE <http://example.org/>
      PREFIX ex: <http://example.org/ns#>
      <alice> ex:age 30 .|}
  in
  let triples = Turtle.parse_string doc in
  check_int "one triple" 1 (List.length triples);
  Alcotest.check term "base applied" (Term.iri "http://example.org/alice")
    (Triple.subject (List.hd triples))

let test_turtle_literals () =
  let doc =
    {|@prefix ex: <http://example.org/> .
      @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
      ex:a ex:s "plain" ; ex:t "typed"^^xsd:string ; ex:d 3.14 ; ex:b true .|}
  in
  let triples = Turtle.parse_string doc in
  check_int "four" 4 (List.length triples);
  let find p = (List.find (fun (t : Triple.t) -> Term.equal t.p (Term.iri ("http://example.org/" ^ p))) triples).o in
  Alcotest.check term "plain" (Term.string_literal "plain") (find "s");
  Alcotest.check term "typed" (Term.typed_literal "typed" ~datatype:(Namespace.xsd "string")) (find "t");
  Alcotest.check term "decimal" (Term.typed_literal "3.14" ~datatype:(Namespace.xsd "decimal")) (find "d");
  Alcotest.check term "boolean" (Term.typed_literal "true" ~datatype:(Namespace.xsd "boolean")) (find "b")

let test_turtle_errors () =
  let expect_error doc =
    match Turtle.parse_string doc with
    | exception Turtle.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted %S" doc
  in
  expect_error "ex:a ex:p ex:o .";                       (* unbound prefix *)
  expect_error "@prefix ex: <http://x/> . ex:a ex:p .";  (* missing object *)
  expect_error "@prefix ex: <http://x/> . ex:a ex:p ex:o"; (* missing dot *)
  expect_error "@prefix ex <http://x/> .";               (* malformed directive *)
  expect_error {|@prefix ex: <http://x/> . ex:a ex:p "v|}

let test_turtle_error_line () =
  let doc = "@prefix ex: <http://x/> .\n\nex:a ex:p\n" in
  match Turtle.parse_string doc with
  | exception Turtle.Parse_error (line, _) -> check_bool "line >= 3" true (line >= 3)
  | _ -> Alcotest.fail "no error"

let test_turtle_unsupported_constructs () =
  (* Collections and anonymous blank nodes are documented as out of
     scope: they must fail loudly, not parse wrongly. *)
  let expect_error doc =
    match Turtle.parse_string doc with
    | exception Turtle.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted unsupported construct %S" doc
  in
  expect_error "@prefix ex: <http://x/> . ex:a ex:p [ ex:q ex:o ] .";
  expect_error "@prefix ex: <http://x/> . ex:a ex:p ( ex:b ex:c ) ."

let test_ntriples_parse_term () =
  Alcotest.check term "iri" (Term.iri "http://x/a") (Ntriples.parse_term "<http://x/a>");
  Alcotest.check term "blank" (Term.blank "b0") (Ntriples.parse_term "_:b0");
  Alcotest.check term "plain" (Term.string_literal "v") (Ntriples.parse_term "\"v\"");
  Alcotest.check term "lang" (Term.literal ~lang:"en" "v") (Ntriples.parse_term "\"v\"@en");
  Alcotest.check term "typed" (Term.int_literal 7)
    (Ntriples.parse_term "\"7\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  List.iter
    (fun bad ->
      match Ntriples.parse_term bad with
      | exception Ntriples.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %S" bad)
    [ ""; "<http://x/a> extra"; "plainword"; "\"unterminated" ]

let test_turtle_serialize_roundtrip () =
  let ns = Namespace.create () in
  Namespace.add ns ~prefix:"ex" ~iri:"http://example.org/";
  let triples =
    [
      Triple.make (Term.iri "http://example.org/a") (Term.iri "http://example.org/p")
        (Term.iri "http://example.org/o1");
      Triple.make (Term.iri "http://example.org/a") (Term.iri "http://example.org/p")
        (Term.iri "http://example.org/o2");
      Triple.make (Term.iri "http://example.org/a") (Term.iri Namespace.rdf_type)
        (Term.iri "http://example.org/T");
      Triple.make (Term.iri "http://example.org/b") (Term.iri "http://example.org/q")
        (Term.literal ~lang:"en" "v");
    ]
  in
  let doc = Turtle.to_string ~namespaces:ns triples in
  let reparsed = Turtle.parse_string doc in
  Alcotest.(check (list triple_t)) "roundtrip (sorted)"
    (List.sort Triple.compare triples)
    (List.sort Triple.compare reparsed)

let test_turtle_large_export () =
  (* The serializer must handle big graphs without deep recursion: 50k
     triples across 10k subjects, then reparse and compare. *)
  let triples =
    List.init 50_000 (fun i ->
        Triple.make
          (Term.iri (Printf.sprintf "http://x/s%d" (i mod 10_000)))
          (Term.iri (Printf.sprintf "http://x/p%d" (i mod 7)))
          (Term.iri (Printf.sprintf "http://x/o%d" i)))
  in
  let doc = Turtle.to_string triples in
  let reparsed = Turtle.parse_string doc in
  check_int "all triples survive" (List.length triples) (List.length reparsed);
  check_bool "same set" true
    (Triple.Set.equal (Triple.Set.of_list triples) (Triple.Set.of_list reparsed))

let prop_turtle_roundtrip =
  QCheck.Test.make ~name:"turtle serialize/parse roundtrip" ~count:200 arbitrary_triples
    (fun triples ->
      let doc = Turtle.to_string triples in
      let reparsed = Turtle.parse_string doc in
      Triple.Set.equal (Triple.Set.of_list triples) (Triple.Set.of_list reparsed))

(* ------------------------------------------------------------------ *)
(* Graph                                                               *)
(* ------------------------------------------------------------------ *)

let mk s p o =
  Triple.make (Term.iri ("http://x/" ^ s)) (Term.iri ("http://x/" ^ p)) (Term.iri ("http://x/" ^ o))

let test_graph_basic () =
  let g = Graph.create () in
  check_bool "add new" true (Graph.add g (mk "s" "p" "o"));
  check_bool "add dup" false (Graph.add g (mk "s" "p" "o"));
  check_int "size" 1 (Graph.size g);
  check_bool "mem" true (Graph.mem g (mk "s" "p" "o"));
  check_bool "remove" true (Graph.remove g (mk "s" "p" "o"));
  check_bool "remove absent" false (Graph.remove g (mk "s" "p" "o"));
  check_int "empty again" 0 (Graph.size g)

let test_graph_patterns () =
  let g = Graph.of_triples [ mk "s1" "p1" "o1"; mk "s1" "p2" "o2"; mk "s2" "p1" "o1" ] in
  let pat_s1 = Graph.pattern ~s:(Term.iri "http://x/s1") () in
  check_int "s bound" 2 (Graph.count g pat_s1);
  let pat_po = Graph.pattern ~p:(Term.iri "http://x/p1") ~o:(Term.iri "http://x/o1") () in
  check_int "p,o bound" 2 (Graph.count g pat_po);
  check_int "wildcard" 3 (Graph.count g Graph.wildcard);
  check_int "no match" 0 (Graph.count g (Graph.pattern ~s:(Term.iri "http://x/zz") ()))

let test_graph_projections () =
  let g = Graph.of_triples [ mk "s1" "p1" "o1"; mk "s2" "p1" "o2" ] in
  check_int "subjects" 2 (Term.Set.cardinal (Graph.subjects g));
  check_int "predicates" 1 (Term.Set.cardinal (Graph.predicates g));
  check_int "objects" 2 (Term.Set.cardinal (Graph.objects g));
  let g2 = Graph.of_triples [ mk "s1" "p1" "o1"; mk "s9" "p9" "o9" ] in
  check_int "union" 3 (Graph.size (Graph.union g g2));
  check_bool "equal no" false (Graph.equal g g2);
  check_bool "equal yes" true (Graph.equal g (Graph.of_triples (Graph.to_list g)))

let prop_ntriples_fuzz =
  (* Arbitrary lines must either parse or raise Parse_error — nothing
     else (no assertion failures, no Invalid_argument escapes). *)
  QCheck.Test.make ~name:"ntriples parser never crashes on junk" ~count:500
    (QCheck.make QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 80)))
    (fun line ->
      match Ntriples.parse_line line with
      | Some _ | None -> true
      | exception Ntriples.Parse_error _ -> true)

let prop_turtle_fuzz =
  QCheck.Test.make ~name:"turtle parser never crashes on junk" ~count:500
    (QCheck.make QCheck.Gen.(string_size ~gen:printable (int_bound 120)))
    (fun doc ->
      match Turtle.parse_string doc with
      | _ -> true
      | exception Turtle.Parse_error _ -> true
      | exception Ntriples.Parse_error _ -> true)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "rdf"
    [
      ( "term",
        [
          Alcotest.test_case "constructors" `Quick test_term_constructors;
          Alcotest.test_case "canonical" `Quick test_term_canonical;
          Alcotest.test_case "predicates" `Quick test_term_predicates;
          Alcotest.test_case "order" `Quick test_term_order;
          Alcotest.test_case "to_string" `Quick test_term_to_string;
        ] );
      ( "triple",
        [
          Alcotest.test_case "make" `Quick test_triple_make;
          Alcotest.test_case "order" `Quick test_triple_order;
        ] );
      ( "namespace",
        [
          Alcotest.test_case "expand_shorten" `Quick test_namespace;
          Alcotest.test_case "longest_match" `Quick test_namespace_longest_match;
        ] );
      ( "ntriples",
        [
          Alcotest.test_case "simple" `Quick test_nt_parse_simple;
          Alcotest.test_case "literals" `Quick test_nt_parse_literals;
          Alcotest.test_case "blank" `Quick test_nt_parse_blank;
          Alcotest.test_case "escapes" `Quick test_nt_escapes;
          Alcotest.test_case "errors" `Quick test_nt_errors;
          Alcotest.test_case "error_lines" `Quick test_nt_error_line_numbers;
          Alcotest.test_case "line_ends" `Quick test_nt_line_ends;
          Alcotest.test_case "doc_roundtrip" `Quick test_nt_roundtrip_doc;
          Alcotest.test_case "file_io" `Quick test_nt_file_io;
          Alcotest.test_case "parse_term" `Quick test_ntriples_parse_term;
          qt prop_term_roundtrip;
          qt prop_is_term_spelling;
          qt prop_constructed_roundtrip;
          qt prop_nt_roundtrip;
          qt prop_nt_layout_roundtrip;
          qt prop_nt_entry_points;
          Alcotest.test_case "shared IRIs" `Quick test_nt_shared_iris;
          qt prop_nt_loader;
          Alcotest.test_case "loader long line" `Quick test_nt_loader_long_line;
          qt prop_ntriples_fuzz;
        ] );
      ( "turtle",
        [
          Alcotest.test_case "basic" `Quick test_turtle_basic;
          Alcotest.test_case "lists" `Quick test_turtle_lists;
          Alcotest.test_case "base_sparql_prefix" `Quick test_turtle_base_and_sparql_prefix;
          Alcotest.test_case "literals" `Quick test_turtle_literals;
          Alcotest.test_case "errors" `Quick test_turtle_errors;
          Alcotest.test_case "error_line" `Quick test_turtle_error_line;
          Alcotest.test_case "unsupported" `Quick test_turtle_unsupported_constructs;
          Alcotest.test_case "serialize_roundtrip" `Quick test_turtle_serialize_roundtrip;
          Alcotest.test_case "large_export" `Slow test_turtle_large_export;
          qt prop_turtle_roundtrip;
          qt prop_turtle_fuzz;
        ] );
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "patterns" `Quick test_graph_patterns;
          Alcotest.test_case "projections" `Quick test_graph_projections;
        ] );
    ]
