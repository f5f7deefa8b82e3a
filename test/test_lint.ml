(* Tests for the token-level static analysis (PR 6): the Check.Lexer
   tokenizer, the lint fixture corpus with golden violation lists, the
   Check.Mutability inventory, and the lint telemetry counters.
   (missing-mli is directory-shaped and keeps its temp-dir test in
   test_check.ml; here scan_dir over the corpus checks it reports every
   interface-less fixture.) *)

module C = Check
module L = Check.Lexer

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let qt = QCheck_alcotest.to_alcotest

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let kinds_of src = Array.to_list (L.tokenize src).L.tokens |> List.map (fun t -> t.L.kind)
let texts_of src = Array.to_list (L.tokenize src).L.tokens |> List.map (fun t -> t.L.text)

let test_lexer_kinds () =
  check_bool "idents and ops" true
    (kinds_of "let x := A.f 'c' \"s\" (* c *) 1"
    = [ L.Ident; L.Ident; L.Op; L.Uident; L.Op; L.Ident; L.Char; L.String; L.Comment; L.Number ]);
  check_bool "assignment ops are single tokens" true
    (texts_of "a := b; r.f <- c" = [ "a"; ":="; "b"; ";"; "r"; "."; "f"; "<-"; "c" ]);
  (* Nested comments collapse to one token; strings inside comments are
     honored, so a comment closer inside them does not end the comment. *)
  check_int "nested comment is one token" 2
    (List.length (texts_of "(* a (* b *) \"*)\" c *) x"));
  check_bool "identifier primes stay identifiers" true
    (texts_of "x' + f'a'" = [ "x'"; "+"; "f'a'" ]);
  check_bool "type variable quote is punct" true (kinds_of "'a t" = [ L.Punct; L.Ident; L.Ident ]);
  check_bool "escaped char literals" true
    (kinds_of "'\\n' '\\xFF' '\\\\'" = [ L.Char; L.Char; L.Char ]);
  check_bool "quoted string literal" true (kinds_of "{q|raw \" |} body|q}" = [ L.String ]);
  check_bool "multiline string is one token" true
    (kinds_of "\"line1\nPrintf.printf\nline3\"" = [ L.String ])

let test_lexer_positions () =
  let src = "let a = 1\n  let b = \"x\"\n" in
  let t = L.tokenize src in
  Array.iter
    (fun (tok : L.token) ->
      (* Token positions agree with the binary-searched line table. *)
      let line, col = L.position t tok.L.pos in
      check_int ("line of " ^ tok.L.text) tok.L.line line;
      check_int ("col of " ^ tok.L.text) tok.L.col col;
      check_string ("slice of " ^ tok.L.text) tok.L.text
        (String.sub t.L.src tok.L.pos (String.length tok.L.text)))
    t.L.tokens;
  (* Naive oracle for the binary search, across every byte offset. *)
  let line = ref 1 and col = ref 1 in
  String.iteri
    (fun off c ->
      let l, cl = L.position t off in
      check_int (Printf.sprintf "line at %d" off) !line l;
      check_int (Printf.sprintf "col at %d" off) !col cl;
      if c = '\n' then begin
        incr line;
        col := 1
      end
      else incr col)
    src;
  check_string "line_text 1" "let a = 1" (L.line_text t 1);
  check_string "line_text 2" "  let b = \"x\"" (L.line_text t 2);
  check_string "line_text out of range" "" (L.line_text t 9)

let test_lexer_path_at () =
  let t = L.tokenize "Unix.gettimeofday () ; A.B.c ; Sys.timestamp ; lone" in
  let paths =
    Array.to_list t.L.tokens
    |> List.mapi (fun i _ -> i)
    |> List.filter_map (fun i ->
           if i > 0 && t.L.tokens.(i - 1).L.kind = L.Op && t.L.tokens.(i - 1).L.text = "." then
             None
           else Option.map fst (L.path_at t i))
  in
  check_bool "reassembled paths" true
    (paths = [ "Unix.gettimeofday"; "A.B.c"; "Sys.timestamp"; "lone" ])

(* Rebuild a source image from the token array: whitespace (newlines
   preserved) everywhere, each token blitted back at its offset. *)
let reserialize (t : L.t) =
  let b = Bytes.make (String.length t.L.src) ' ' in
  String.iteri (fun i c -> if c = '\n' then Bytes.set b i '\n') t.L.src;
  Array.iter
    (fun (tok : L.token) -> Bytes.blit_string tok.L.text 0 b tok.L.pos (String.length tok.L.text))
    t.L.tokens;
  Bytes.to_string b

let token_eq (a : L.token) (b : L.token) =
  a.L.kind = b.L.kind && String.equal a.L.text b.L.text && a.L.pos = b.L.pos
  && a.L.line = b.L.line && a.L.col = b.L.col

(* Coverage invariants the lexer promises for arbitrary input. *)
let coverage_ok src =
  let t = L.tokenize src in
  let covered = Array.make (String.length src) false in
  let ordered = ref true and prev_end = ref 0 in
  Array.iter
    (fun (tok : L.token) ->
      if tok.L.pos < !prev_end then ordered := false;
      prev_end := tok.L.pos + String.length tok.L.text;
      if not (String.equal tok.L.text (String.sub src tok.L.pos (String.length tok.L.text)))
      then ordered := false;
      String.iteri (fun k _ -> covered.(tok.L.pos + k) <- true) tok.L.text;
      let line, col = L.position t tok.L.pos in
      if line <> tok.L.line || col <> tok.L.col then ordered := false)
    t.L.tokens;
  let gaps_white = ref true in
  String.iteri
    (fun i c ->
      if (not covered.(i)) && not (c = ' ' || c = '\t' || c = '\n' || c = '\r') then
        gaps_white := false)
    src;
  !ordered && !gaps_white

let ocamlish_gen =
  let frag =
    QCheck.Gen.oneofl
      [
        "let x = ref 0\n"; "let f () =\n  Hashtbl.create 3\n"; "(* c *)"; "(* (* nest *) *)";
        "(* \"*)\" still comment *)"; "\"str \\\" esc\""; "{q|raw \" |} body|q}"; "'a'";
        "'\\n'"; "'\\xFF'"; "x'"; "f'a'"; "'a t"; "A.B.c"; "Unix.gettimeofday"; ":="; "<-";
        "->"; "mutable s : int;"; "123"; "1.5"; "0x1f"; "1."; "1..2"; "~-"; "|>";
        "with _ ->"; "with _e ->"; "incr n;"; "\"unterminated"; "(* unterminated"; "#load";
        " "; "\n"; "\t"; "\r\n"; "  ";
      ]
  in
  QCheck.Gen.map (String.concat "") (QCheck.Gen.list_size (QCheck.Gen.int_range 0 40) frag)

let arb_ocamlish = QCheck.make ~print:String.escaped ocamlish_gen

let prop_lexer_coverage =
  QCheck.Test.make ~name:"lexer covers every non-whitespace byte (ocaml-ish)" ~count:500
    arb_ocamlish coverage_ok

let prop_lexer_coverage_random =
  QCheck.Test.make ~name:"lexer covers every non-whitespace byte (random bytes)" ~count:500
    QCheck.string coverage_ok

let reserialize_ok src =
  let t = L.tokenize src in
  let t' = L.tokenize (reserialize t) in
  Array.length t.L.tokens = Array.length t'.L.tokens
  && Array.for_all2 token_eq t.L.tokens t'.L.tokens

let prop_lexer_reserialize =
  QCheck.Test.make ~name:"re-serializing tokens preserves source positions" ~count:500
    arb_ocamlish reserialize_ok

let prop_lexer_reserialize_random =
  QCheck.Test.make ~name:"re-serialize round-trip (random bytes)" ~count:500 QCheck.string
    reserialize_ok

(* ------------------------------------------------------------------ *)
(* Fixture corpus                                                      *)
(* ------------------------------------------------------------------ *)

let fixtures_dir = "lint_fixtures"

(* "path=..." plus "<line> <rule>" lines; '#' comments. *)
let parse_expected contents =
  let path = ref "fixture.ml" and wants = ref [] in
  String.split_on_char '\n' contents
  |> List.iter (fun line ->
         let line = String.trim line in
         if String.length line = 0 || line.[0] = '#' then ()
         else if String.length line > 5 && String.equal (String.sub line 0 5) "path=" then
           path := String.sub line 5 (String.length line - 5)
         else
           match String.index_opt line ' ' with
           | Some i ->
               wants :=
                 ( int_of_string (String.sub line 0 i),
                   String.sub line (i + 1) (String.length line - i - 1) )
                 :: !wants
           | None -> Alcotest.failf "unparseable expected line %S" line);
  (!path, List.sort compare !wants)

let violation_key (v : C.Violation.t) =
  let line =
    match String.rindex_opt v.C.Violation.path ':' with
    | Some i ->
        int_of_string
          (String.sub v.C.Violation.path (i + 1) (String.length v.C.Violation.path - i - 1))
    | None -> 0
  in
  let rule =
    match String.index_opt v.C.Violation.message ':' with
    | Some i -> String.sub v.C.Violation.message 0 i
    | None -> v.C.Violation.message
  in
  (line, rule)

let pp_keys keys =
  String.concat ", " (List.map (fun (l, r) -> Printf.sprintf "%d %s" l r) keys)

let fixture_bases () =
  Sys.readdir fixtures_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".expected")
  |> List.map (fun f -> Filename.chop_suffix f ".expected")
  |> List.sort compare

let test_fixture_corpus () =
  let bases = fixture_bases () in
  check_bool "corpus is non-trivial" true (List.length bases >= 6);
  List.iter
    (fun base ->
      let src = read_file (Filename.concat fixtures_dir (base ^ ".ml")) in
      let path, wants = parse_expected (read_file (Filename.concat fixtures_dir (base ^ ".expected"))) in
      let got = List.sort compare (List.map violation_key (C.Lint.scan_source ~path src)) in
      if got <> wants then
        Alcotest.failf "%s: expected [%s], got [%s]" base (pp_keys wants) (pp_keys got))
    bases

let test_fixture_dir_missing_mli () =
  (* scan_dir over the corpus reports missing-mli for every fixture .ml
     (none has an interface) on top of the content findings. *)
  let vs = C.Lint.scan_dir fixtures_dir in
  let missing =
    List.filter (fun (v : C.Violation.t) ->
        let msg = v.C.Violation.message in
        String.length msg >= 11 && String.equal (String.sub msg 0 11) "missing-mli")
      vs
  in
  check_int "one missing-mli per fixture" (List.length (fixture_bases ())) (List.length missing)

(* query-resolve is scoped to the query layer, minus its two exempt
   modules, and the repository's own query layer passes it. *)
let test_query_resolve_scope () =
  let src =
    "let f dict t = Dict.Term_dict.find_term dict t\nlet g t = Rdf.Term.to_string t\n\
     let h dict id = Dict.Term_dict.decode_term dict id\n"
  in
  let fired path =
    List.length
      (List.filter
         (fun v -> snd (violation_key v) = "query-resolve")
         (C.Lint.scan_source ~path src))
  in
  check_int "exec fires three times" 3 (fired "lib/query/exec.ml");
  check_int "compiler exempt" 0 (fired "lib/query/compile.ml");
  check_int "results exempt" 0 (fired "lib/query/results.ml");
  check_int "other layers untouched" 0 (fired "lib/core/store_sig.ml");
  let query_dir = Filename.concat (Filename.concat ".." "lib") "query" in
  if Sys.file_exists query_dir then
    check_int "lib/query is clean" 0
      (List.length
         (List.filter
            (fun v -> snd (violation_key v) = "query-resolve")
            (C.Lint.scan_dir query_dir)))

(* ------------------------------------------------------------------ *)
(* Mutability inventory                                                *)
(* ------------------------------------------------------------------ *)

let seeded_src =
  "(* domain-safety: test-only — toggled by tests *)\n"
  ^ "let g = ref 0\n" ^ "\n" ^ "type r = { mutable field : int }\n" ^ "\n"
  ^ "let f x =\n" ^ "  let l = ref x in\n" ^ "  l := 1;\n" ^ "  g := 2;\n"
  ^ "  Other.state := 3;\n" ^ "  incr g;\n" ^ "  ignore (Hashtbl.create 4);\n" ^ "  !l\n"

let test_mutability_classification () =
  let fr = C.Mutability.analyze_source ~path:"lib/core/x.ml" seeded_src in
  check_string "layer" "core" fr.C.Mutability.layer;
  check_int "one global" 1 (List.length fr.C.Mutability.globals);
  let g = List.hd fr.C.Mutability.globals in
  check_string "global name" "g" g.C.Mutability.g_name;
  check_string "global ctor" "ref" g.C.Mutability.g_ctor;
  (match g.C.Mutability.g_attestation with
  | Some (cls, reason) ->
      check_string "class" "test-only" cls;
      check_string "reason" "toggled by tests" reason
  | None -> Alcotest.fail "expected an attestation");
  check_int "one mutable field" 1 (List.length fr.C.Mutability.fields);
  (* ref in f plus Hashtbl.create; the global's own [ref 0] is not a
     local site. *)
  check_int "local creations" 2 (List.length fr.C.Mutability.locals);
  let count p = List.length (List.filter p fr.C.Mutability.assigns) in
  check_int "global assigns (g := and incr g)" 2
    (count (fun (t, _) -> match t with C.Mutability.Global _ -> true | _ -> false));
  check_int "qualified assigns" 1
    (count (fun (t, _) -> match t with C.Mutability.Qualified _ -> true | _ -> false));
  check_int "local assigns" 1
    (count (fun (t, _) -> match t with C.Mutability.Local _ -> true | _ -> false))

let test_mutability_non_globals () =
  let fr =
    C.Mutability.analyze_source ~path:"x.ml"
      ("let make () = ref 0\n" ^ "let thunk = fun () -> ref 1\n"
     ^ "let annotated : int ref option = None\n" ^ "let lazy_one = lazy (ref 2)\n")
  in
  check_int "no globals" 0 (List.length fr.C.Mutability.globals)

let test_mutability_classes () =
  List.iter
    (fun c ->
      match C.Mutability.class_of_string (C.Mutability.class_name c) with
      | Some c' -> check_bool (C.Mutability.class_name c) true (c = c')
      | None -> Alcotest.failf "class %s does not round-trip" (C.Mutability.class_name c))
    [
      C.Mutability.Immutable_after_init; C.Mutability.Guarded; C.Mutability.Telemetry_gated;
      C.Mutability.Test_only; C.Mutability.Atomic; C.Mutability.Domain_sharded;
    ];
  check_bool "unknown class rejected" true (C.Mutability.class_of_string "safe" = None)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let test_mutability_report_render () =
  let report = C.Mutability.analyze_dirs [ fixtures_dir ] in
  let md = C.Mutability.to_markdown report in
  check_bool "markdown names the unattested global" true (contains md "bad_unattested");
  match Telemetry.Json.member "schema" (C.Mutability.to_json report) with
  | Some (Telemetry.Json.String s) -> check_string "json schema" "hexastore-domain-safety/v1" s
  | _ -> Alcotest.fail "json report lacks a schema field"

(* ------------------------------------------------------------------ *)
(* Lint telemetry                                                      *)
(* ------------------------------------------------------------------ *)

let test_lint_telemetry_counters () =
  let files = Telemetry.Metrics.counter "check.lint.files" in
  let tokens = Telemetry.Metrics.counter "check.lint.tokens" in
  let magic = Telemetry.Metrics.counter "check.lint.violations.obj-magic" in
  let f0 = Telemetry.Metrics.value files
  and t0 = Telemetry.Metrics.value tokens
  and m0 = Telemetry.Metrics.value magic in
  Telemetry.with_enabled true (fun () ->
      ignore (C.Lint.scan_source ~path:"x.ml" "let f x = Obj.magic x\n"));
  check_int "files counted" (f0 + 1) (Telemetry.Metrics.value files);
  check_bool "tokens counted" true (Telemetry.Metrics.value tokens > t0);
  check_int "violations counted" (m0 + 1) (Telemetry.Metrics.value magic);
  (* Disabled again: the scan must not move the counters. *)
  ignore (C.Lint.scan_source ~path:"x.ml" "let f x = Obj.magic x\n");
  check_int "gated off" (f0 + 1) (Telemetry.Metrics.value files)

let () =
  Alcotest.run "lint"
    [
      ( "lexer",
        [
          Alcotest.test_case "token kinds" `Quick test_lexer_kinds;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
          Alcotest.test_case "path reassembly" `Quick test_lexer_path_at;
          qt prop_lexer_coverage;
          qt prop_lexer_coverage_random;
          qt prop_lexer_reserialize;
          qt prop_lexer_reserialize_random;
        ] );
      ( "fixtures",
        [
          Alcotest.test_case "golden corpus" `Quick test_fixture_corpus;
          Alcotest.test_case "missing-mli over corpus" `Quick test_fixture_dir_missing_mli;
          Alcotest.test_case "query-resolve scope" `Quick test_query_resolve_scope;
        ] );
      ( "mutability",
        [
          Alcotest.test_case "classification" `Quick test_mutability_classification;
          Alcotest.test_case "non-globals" `Quick test_mutability_non_globals;
          Alcotest.test_case "class vocabulary" `Quick test_mutability_classes;
          Alcotest.test_case "report rendering" `Quick test_mutability_report_render;
        ] );
      ("telemetry", [ Alcotest.test_case "lint counters" `Quick test_lint_telemetry_counters ]);
    ]
