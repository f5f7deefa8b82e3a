exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun msg -> raise (Parse_error (line, msg))) fmt

(* --- tokenizer ------------------------------------------------------ *)

type token =
  | Iriref of string
  | Pname of string         (* "prefix:local", colon included *)
  | Bnode of string
  | Str of string            (* unescaped string body *)
  | Langtag of string
  | Hathat
  | Integer of string
  | Decimal of string
  | Boolean of bool
  | Kw_a
  | Kw_prefix               (* @prefix or PREFIX *)
  | Kw_base
  | Dot
  | Semi
  | Comma

type lexed = { tok : token; tline : int }

let is_pname_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let tokenize text =
  let n = String.length text in
  let line = ref 1 in
  let toks = ref [] in
  let push tok = toks := { tok; tline = !line } :: !toks in
  let i = ref 0 in
  let peek k = if !i + k < n then Some text.[!i + k] else None in
  while !i < n do
    (match text.[!i] with
    | '\n' ->
        incr line;
        incr i
    | ' ' | '\t' | '\r' -> incr i
    | '#' ->
        while !i < n && text.[!i] <> '\n' do
          incr i
        done
    | '<' ->
        let start = !i + 1 in
        let j = ref start in
        while !j < n && text.[!j] <> '>' && text.[!j] <> '\n' do
          incr j
        done;
        if !j >= n || text.[!j] <> '>' then fail !line "unterminated IRI";
        push (Iriref (String.sub text start (!j - start)));
        i := !j + 1
    | '"' ->
        let buf = Buffer.create 16 in
        let j = ref (!i + 1) in
        let fin = ref false in
        while not !fin do
          if !j >= n then fail !line "unterminated string";
          (match text.[!j] with
          | '"' ->
              fin := true;
              incr j
          | '\\' ->
              if !j + 1 >= n then fail !line "dangling backslash";
              Buffer.add_char buf '\\';
              Buffer.add_char buf text.[!j + 1];
              j := !j + 2
          | '\n' -> fail !line "newline in single-quoted string"
          | c ->
              Buffer.add_char buf c;
              incr j)
        done;
        (try push (Str (Ntriples.unescape (Buffer.contents buf)))
         with Ntriples.Parse_error (_, m) -> fail !line "%s" m);
        i := !j
    | '@' ->
        let start = !i + 1 in
        let j = ref start in
        while
          !j < n
          && match text.[!j] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' -> true | _ -> false
        do
          incr j
        done;
        let word = String.sub text start (!j - start) in
        (match String.lowercase_ascii word with
        | "prefix" -> push Kw_prefix
        | "base" -> push Kw_base
        | "" -> fail !line "empty @ directive"
        | _ -> push (Langtag (String.lowercase_ascii word)));
        i := !j
    | '^' when peek 1 = Some '^' ->
        push Hathat;
        i := !i + 2
    | '.' when (match peek 1 with Some ('0' .. '9') -> false | _ -> true) ->
        push Dot;
        incr i
    | ';' ->
        push Semi;
        incr i
    | ',' ->
        push Comma;
        incr i
    | '_' when peek 1 = Some ':' ->
        let start = !i + 2 in
        let j = ref start in
        while
          !j < n
          &&
          match text.[!j] with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
          | _ -> false
        do
          incr j
        done;
        if !j = start then fail !line "empty blank node label";
        push (Bnode (String.sub text start (!j - start)));
        i := !j
    | '+' | '-' | '0' .. '9' | '.' ->
        let start = !i in
        let j = ref !i in
        if text.[!j] = '+' || text.[!j] = '-' then incr j;
        let digits = ref 0 in
        while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do
          incr j;
          incr digits
        done;
        let is_decimal =
          !j < n && text.[!j] = '.' && !j + 1 < n && text.[!j + 1] >= '0' && text.[!j + 1] <= '9'
        in
        if is_decimal then begin
          incr j;
          while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do
            incr j;
            incr digits
          done;
          if !digits = 0 then fail !line "malformed number";
          push (Decimal (String.sub text start (!j - start)))
        end
        else begin
          if !digits = 0 then fail !line "malformed number";
          push (Integer (String.sub text start (!j - start)))
        end;
        i := !j
    | 'a' when (match peek 1 with Some c when is_pname_char c -> false | _ -> true) ->
        push Kw_a;
        incr i
    | c when is_pname_char c || c = ':' ->
        let start = !i in
        let j = ref !i in
        while !j < n && is_pname_char text.[!j] do
          incr j
        done;
        (* A pname must not end in '.': the dot terminates the statement. *)
        while !j > start && text.[!j - 1] = '.' do
          decr j
        done;
        let word = String.sub text start (!j - start) in
        (match word with
        | "true" -> push (Boolean true)
        | "false" -> push (Boolean false)
        | "PREFIX" | "prefix" when not (String.contains word ':') -> push Kw_prefix
        | "BASE" | "base" when not (String.contains word ':') -> push Kw_base
        | _ when String.contains word ':' -> push (Pname word)
        | _ -> fail !line "bare word %S (prefixed name needs a colon)" word);
        i := !j
    | c -> fail !line "unexpected character %C" c)
  done;
  List.rev !toks

(* --- parser --------------------------------------------------------- *)

type state = {
  mutable toks : lexed list;
  mutable last_line : int;  (* line of the last consumed token, for EOF errors *)
  ns : Namespace.table;
  mutable base : string;
  out : Triple.t list ref;
}

let cur_line st = match st.toks with { tline; _ } :: _ -> tline | [] -> st.last_line

let next st =
  match st.toks with
  | [] -> fail st.last_line "unexpected end of input"
  | t :: rest ->
      st.toks <- rest;
      st.last_line <- t.tline;
      t

let peek_tok st = match st.toks with [] -> None | t :: _ -> Some t.tok

let resolve_iri st raw =
  (* Relative IRI resolution limited to simple concatenation with @base,
     which is all the test corpus needs. *)
  let has_scheme =
    match String.index_opt raw ':' with
    | Some i ->
        i > 0
        && String.for_all
             (fun c ->
               match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '+' | '-' | '.' -> true | _ -> false)
             (String.sub raw 0 i)
    | None -> false
  in
  if has_scheme || st.base = "" then raw else st.base ^ raw

let expand_pname st line pname =
  match Namespace.expand st.ns pname with
  | iri -> iri
  | exception Not_found -> fail line "unbound prefix in %S" pname
  | exception Invalid_argument _ -> fail line "malformed prefixed name %S" pname

(* IRIs may use \u escapes, as in N-Triples; what is left must pass
   [Term.iri], which takes no raw backslash. *)
let iri_of_ref st line raw =
  if String.contains raw '\\' then
    match Ntriples.unescape raw with
    | iri -> resolve_iri st iri
    | exception Ntriples.Parse_error (_, msg) -> fail line "%s" msg
  else resolve_iri st raw

let term_of_iriref st line raw =
  try Term.iri (iri_of_ref st line raw) with Invalid_argument msg -> fail line "%s" msg

let typed_literal line value dt =
  try Term.literal ~datatype:dt value with Invalid_argument msg -> fail line "%s" msg

let parse_verb st =
  let { tok; tline } = next st in
  match tok with
  | Kw_a -> Term.iri Namespace.rdf_type
  | Iriref raw -> term_of_iriref st tline raw
  | Pname p -> Term.iri (expand_pname st tline p)
  | _ -> fail tline "expected predicate"

let parse_object st =
  let { tok; tline } = next st in
  match tok with
  | Iriref raw -> term_of_iriref st tline raw
  | Pname p -> Term.iri (expand_pname st tline p)
  | Bnode b -> Term.blank b
  | Integer s -> Term.typed_literal s ~datatype:(Namespace.xsd "integer")
  | Decimal s -> Term.typed_literal s ~datatype:(Namespace.xsd "decimal")
  | Boolean b -> Term.typed_literal (string_of_bool b) ~datatype:(Namespace.xsd "boolean")
  | Str value -> (
      match peek_tok st with
      | Some (Langtag lang) ->
          ignore (next st);
          Term.literal ~lang value
      | Some Hathat -> (
          ignore (next st);
          let { tok; tline } = next st in
          match tok with
          | Iriref raw -> typed_literal tline value (iri_of_ref st tline raw)
          | Pname p -> typed_literal tline value (expand_pname st tline p)
          | _ -> fail tline "expected datatype IRI after ^^")
      | _ -> Term.string_literal value)
  | _ -> fail tline "expected object"

let parse_subject st =
  let { tok; tline } = next st in
  match tok with
  | Iriref raw -> term_of_iriref st tline raw
  | Pname p -> Term.iri (expand_pname st tline p)
  | Bnode b -> Term.blank b
  | _ -> fail tline "expected subject"

let rec parse_predicate_object_list st subject =
  let p = parse_verb st in
  let rec objects () =
    let o = parse_object st in
    let line = cur_line st in
    (try st.out := Triple.make subject p o :: !(st.out)
     with Invalid_argument msg -> fail line "%s" msg);
    match peek_tok st with
    | Some Comma ->
        ignore (next st);
        objects ()
    | _ -> ()
  in
  objects ();
  match peek_tok st with
  | Some Semi -> (
      ignore (next st);
      (* allow trailing ';' before '.' *)
      match peek_tok st with
      | Some Dot | None -> ()
      | Some _ -> parse_predicate_object_list st subject)
  | _ -> ()

let parse_directive st kw =
  match kw with
  | Kw_prefix -> (
      let { tok; tline } = next st in
      match tok with
      | Pname p when String.length p > 0 && p.[String.length p - 1] = ':' -> (
          let prefix = String.sub p 0 (String.length p - 1) in
          let { tok; tline } = next st in
          match tok with
          | Iriref iri ->
              Namespace.add st.ns ~prefix ~iri:(resolve_iri st iri);
              (match peek_tok st with
              | Some Dot -> ignore (next st)
              | _ -> () (* SPARQL-style PREFIX has no dot *))
          | _ -> fail tline "expected namespace IRI in @prefix")
      | _ -> fail tline "expected \"prefix:\" in @prefix")
  | Kw_base -> (
      let { tok; tline } = next st in
      match tok with
      | Iriref iri ->
          st.base <- iri;
          (match peek_tok st with Some Dot -> ignore (next st) | _ -> ())
      | _ -> fail tline "expected IRI in @base")
  | _ -> assert false

let parse_string ?namespaces text =
  let ns = match namespaces with Some t -> t | None -> Namespace.create () in
  let st = { toks = tokenize text; last_line = 1; ns; base = ""; out = ref [] } in
  let rec loop () =
    match peek_tok st with
    | None -> ()
    | Some (Kw_prefix | Kw_base) ->
        let { tok; _ } = next st in
        parse_directive st tok;
        loop ()
    | Some _ ->
        let s = parse_subject st in
        parse_predicate_object_list st s;
        let { tok; tline } = next st in
        (match tok with Dot -> () | _ -> fail tline "expected '.' at end of statement");
        loop ()
  in
  loop ();
  List.rev !(st.out)

let load_file ?namespaces path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse_string ?namespaces text

(* --- serializer ----------------------------------------------------- *)

let term_str ns t =
  match t with
  | Term.Iri iri -> (
      match Namespace.shorten ns iri with
      | Some curie when not (String.contains curie '/') -> curie
      | _ -> "<" ^ iri ^ ">")
  | _ -> Term.to_string t

let to_string ?namespaces triples =
  let ns = match namespaces with Some t -> t | None -> Namespace.default () in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (prefix, iri) -> Buffer.add_string buf (Printf.sprintf "@prefix %s: <%s> .\n" prefix iri))
    (Namespace.prefixes ns);
  if Namespace.prefixes ns <> [] then Buffer.add_char buf '\n';
  let sorted = Array.of_list (List.sort_uniq Triple.compare triples) in
  (* Iterative grouping (subject then predicate): recursion here would be
     O(subjects) deep and overflow on large exports. *)
  let n = Array.length sorted in
  let emit_pred p =
    let pred = if Term.equal p (Term.iri Namespace.rdf_type) then "a" else term_str ns p in
    Buffer.add_string buf pred;
    Buffer.add_char buf ' '
  in
  let i = ref 0 in
  while !i < n do
    let t = sorted.(!i) in
    Buffer.add_string buf (term_str ns t.Triple.s);
    Buffer.add_char buf ' ';
    let subject = t.Triple.s in
    let first_pred = ref true in
    while !i < n && Term.equal sorted.(!i).Triple.s subject do
      let p = sorted.(!i).Triple.p in
      if not !first_pred then Buffer.add_string buf " ;\n    ";
      first_pred := false;
      emit_pred p;
      let first_obj = ref true in
      while
        !i < n && Term.equal sorted.(!i).Triple.s subject && Term.equal sorted.(!i).Triple.p p
      do
        if not !first_obj then Buffer.add_string buf ", ";
        first_obj := false;
        Buffer.add_string buf (term_str ns sorted.(!i).Triple.o);
        incr i
      done
    done;
    Buffer.add_string buf " .\n"
  done;
  Buffer.contents buf
