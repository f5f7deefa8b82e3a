exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun msg -> raise (Parse_error (line, msg))) fmt

(* --- lexer ----------------------------------------------------------- *)

type token =
  | Kw of string            (* uppercased keyword *)
  | Var of string           (* without the sigil *)
  | Iriref of string
  | Pname of string
  | Str of string
  | Langtag of string
  | Hathat
  | Integer of string
  | Decimal of string
  | Boolean of bool
  | Tok_a
  | Lbrace
  | Rbrace
  | Lparen
  | Rparen
  | Dot
  | Semi
  | Comma
  | Star
  | Op of string            (* = != < <= > >= && || ! *)

type lexed = { tok : token; tline : int }

let keywords =
  [ "SELECT"; "ASK"; "WHERE"; "FILTER"; "UNION"; "DISTINCT"; "GROUP"; "BY"; "ORDER";
    "LIMIT"; "OFFSET"; "COUNT"; "AS"; "PREFIX"; "BASE"; "DESC"; "ASC"; "BOUND"; "OPTIONAL";
    "CONSTRUCT"; "VALUES"; "UNDEF" ]

let is_pname_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let is_var_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

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
    | '{' -> push Lbrace; incr i
    | '}' -> push Rbrace; incr i
    | '(' -> push Lparen; incr i
    | ')' -> push Rparen; incr i
    | ';' -> push Semi; incr i
    | ',' -> push Comma; incr i
    | '*' -> push Star; incr i
    | '=' -> push (Op "="); incr i
    | '!' when peek 1 = Some '=' -> push (Op "!="); i := !i + 2
    | '!' -> push (Op "!"); incr i
    | '<' when peek 1 = Some '=' -> push (Op "<="); i := !i + 2
    | '>' when peek 1 = Some '=' -> push (Op ">="); i := !i + 2
    | '>' -> push (Op ">"); incr i
    | '&' when peek 1 = Some '&' -> push (Op "&&"); i := !i + 2
    | '|' when peek 1 = Some '|' -> push (Op "||"); i := !i + 2
    | '<' -> (
        (* IRI or less-than: an IRI has no whitespace before '>'. *)
        let j = ref (!i + 1) in
        let ok = ref true in
        while !ok && !j < n && text.[!j] <> '>' do
          (match text.[!j] with ' ' | '\t' | '\n' -> ok := false | _ -> incr j)
        done;
        if !ok && !j < n && text.[!j] = '>' then begin
          push (Iriref (String.sub text (!i + 1) (!j - !i - 1)));
          i := !j + 1
        end
        else begin
          push (Op "<");
          incr i
        end)
    | '?' | '$' ->
        let start = !i + 1 in
        let j = ref start in
        while !j < n && is_var_char text.[!j] do
          incr j
        done;
        if !j = start then fail !line "empty variable name";
        push (Var (String.sub text start (!j - start)));
        i := !j
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
          | c ->
              Buffer.add_char buf c;
              incr j)
        done;
        (try push (Str (Rdf.Ntriples.unescape (Buffer.contents buf)))
         with Rdf.Ntriples.Parse_error (_, m) -> fail !line "%s" m);
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
        if !j = start then fail !line "empty language tag";
        push (Langtag (String.lowercase_ascii (String.sub text start (!j - start))));
        i := !j
    | '^' when peek 1 = Some '^' ->
        push Hathat;
        i := !i + 2
    | '.' when (match peek 1 with Some ('0' .. '9') -> false | _ -> true) ->
        push Dot;
        incr i
    | '0' .. '9' | '+' | '-' | '.' ->
        let start = !i in
        let j = ref !i in
        if !j < n && (text.[!j] = '+' || text.[!j] = '-') then incr j;
        while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do
          incr j
        done;
        if !j < n && text.[!j] = '.' && !j + 1 < n && text.[!j + 1] >= '0' && text.[!j + 1] <= '9'
        then begin
          incr j;
          while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do
            incr j
          done;
          push (Decimal (String.sub text start (!j - start)))
        end
        else if !j = start + (if text.[start] = '+' || text.[start] = '-' then 1 else 0) then
          fail !line "malformed number"
        else push (Integer (String.sub text start (!j - start)));
        i := !j
    | 'a' when (match peek 1 with Some c when is_pname_char c -> false | _ -> true) ->
        push Tok_a;
        incr i
    | c when is_pname_char c ->
        let start = !i in
        let j = ref !i in
        while !j < n && is_pname_char text.[!j] do
          incr j
        done;
        while !j > start && text.[!j - 1] = '.' do
          decr j
        done;
        let word = String.sub text start (!j - start) in
        let upper = String.uppercase_ascii word in
        if word = "true" then push (Boolean true)
        else if word = "false" then push (Boolean false)
        else if List.mem upper keywords && not (String.contains word ':') then push (Kw upper)
        else if String.contains word ':' then push (Pname word)
        else fail !line "bare word %S" word;
        i := !j
    | c -> fail !line "unexpected character %C" c)
  done;
  List.rev !toks

(* --- parser ---------------------------------------------------------- *)

type state = {
  mutable toks : lexed list;
  mutable last_line : int;
  ns : Rdf.Namespace.table;
  mutable base : string;
}

let peek_tok st = match st.toks with [] -> None | t :: _ -> Some t.tok


let next st =
  match st.toks with
  | [] -> fail st.last_line "unexpected end of query"
  | t :: rest ->
      st.toks <- rest;
      st.last_line <- t.tline;
      t

let cur_line st = match st.toks with { tline; _ } :: _ -> tline | [] -> st.last_line

let expect st tok what =
  let { tok = got; tline } = next st in
  if got <> tok then fail tline "expected %s" what

let expand_pname st line pname =
  match Rdf.Namespace.expand st.ns pname with
  | iri -> iri
  | exception Not_found -> fail line "unbound prefix in %S" pname
  | exception Invalid_argument _ -> fail line "malformed prefixed name %S" pname

let resolve_iri st raw =
  let has_scheme =
    match String.index_opt raw ':' with
    | Some i ->
        i > 0
        && String.for_all
             (fun c ->
               match c with
               | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '+' | '-' | '.' -> true
               | _ -> false)
             (String.sub raw 0 i)
    | None -> false
  in
  if has_scheme || st.base = "" then raw else st.base ^ raw

let parse_prologue st =
  let rec loop () =
    match peek_tok st with
    | Some (Kw "PREFIX") -> (
        ignore (next st);
        let { tok; tline } = next st in
        match tok with
        | Pname p when String.length p > 0 && p.[String.length p - 1] = ':' -> (
            let prefix = String.sub p 0 (String.length p - 1) in
            let { tok; tline } = next st in
            match tok with
            | Iriref iri ->
                Rdf.Namespace.add st.ns ~prefix ~iri:(resolve_iri st iri);
                loop ()
            | _ -> fail tline "expected IRI in PREFIX")
        | _ -> fail tline "expected \"prefix:\" in PREFIX")
    | Some (Kw "BASE") -> (
        ignore (next st);
        let { tok; tline } = next st in
        match tok with
        | Iriref iri ->
            st.base <- iri;
            loop ()
        | _ -> fail tline "expected IRI in BASE")
    | _ -> ()
  in
  loop ()

(* [Rdf.Term.iri] rejects illegal characters with [Invalid_argument];
   in query text that is a syntax error. *)
let iri line s =
  match Rdf.Term.iri s with t -> Algebra.Term t | exception Invalid_argument m -> fail line "%s" m

let typed_literal line value dt =
  match Rdf.Term.literal ~datatype:dt value with
  | t -> Algebra.Term t
  | exception Invalid_argument m -> fail line "%s" m

let parse_term_atom st =
  let { tok; tline } = next st in
  match tok with
  | Var v -> Algebra.Var v
  | Iriref raw -> iri tline (resolve_iri st raw)
  | Pname p -> iri tline (expand_pname st tline p)
  | Tok_a -> Algebra.Term (Rdf.Term.iri Rdf.Namespace.rdf_type)
  | Integer s -> Algebra.Term (Rdf.Term.typed_literal s ~datatype:(Rdf.Namespace.xsd "integer"))
  | Decimal s -> Algebra.Term (Rdf.Term.typed_literal s ~datatype:(Rdf.Namespace.xsd "decimal"))
  | Boolean b ->
      Algebra.Term (Rdf.Term.typed_literal (string_of_bool b) ~datatype:(Rdf.Namespace.xsd "boolean"))
  | Str value -> (
      match peek_tok st with
      | Some (Langtag lang) ->
          ignore (next st);
          Algebra.Term (Rdf.Term.literal ~lang value)
      | Some Hathat -> (
          ignore (next st);
          let { tok; tline } = next st in
          match tok with
          | Iriref raw -> typed_literal tline value (resolve_iri st raw)
          | Pname p -> typed_literal tline value (expand_pname st tline p)
          | _ -> fail tline "expected datatype IRI")
      | _ -> Algebra.Term (Rdf.Term.string_literal value))
  | _ -> fail tline "expected a term or variable"

(* triples block: subject, then semicolon-separated predicates each
   with comma-separated objects *)
let parse_triples_block st =
  let out = ref [] in
  let subject = parse_term_atom st in
  let rec predicates () =
    let p = parse_term_atom st in
    let rec objects () =
      let o = parse_term_atom st in
      out := Algebra.tp subject p o :: !out;
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
        match peek_tok st with
        | Some (Dot | Rbrace) | None -> ()
        | _ -> predicates ())
    | _ -> ()
  in
  predicates ();
  List.rev !out

(* VALUES ?x { t1 t2 }  or  VALUES (?x ?y) { (t1 t2) (t3 t4) } *)
let parse_values_term st =
  match peek_tok st with
  | Some (Kw "UNDEF") ->
      ignore (next st);
      None
  | _ -> (
      match parse_term_atom st with
      | Algebra.Term t -> Some t
      | Algebra.Var _ -> fail (cur_line st) "variables are not allowed in VALUES data")

let parse_values st =
  let vars =
    match peek_tok st with
    | Some (Var v) ->
        ignore (next st);
        [ v ]
    | Some Lparen ->
        ignore (next st);
        let rec vars acc =
          match peek_tok st with
          | Some (Var v) ->
              ignore (next st);
              vars (v :: acc)
          | Some Rparen ->
              ignore (next st);
              List.rev acc
          | _ -> fail (cur_line st) "expected variable or ')' in VALUES header"
        in
        vars []
    | _ -> fail (cur_line st) "expected variable or '(' after VALUES"
  in
  if vars = [] then fail (cur_line st) "empty VALUES header";
  expect st Lbrace "'{' opening VALUES data";
  let rows = ref [] in
  let rec loop () =
    match peek_tok st with
    | Some Rbrace -> ignore (next st)
    | Some Lparen when List.length vars > 1 || peek_tok st = Some Lparen ->
        ignore (next st);
        let row = List.map (fun _ -> parse_values_term st) vars in
        expect st Rparen "')' closing a VALUES row";
        rows := row :: !rows;
        loop ()
    | Some _ when List.length vars = 1 ->
        rows := [ parse_values_term st ] :: !rows;
        loop ()
    | _ -> fail (cur_line st) "malformed VALUES data"
  in
  loop ();
  Algebra.Values (vars, List.rev !rows)

(* filter expressions, precedence: ! > comparison > && > || *)
let rec parse_expr st = parse_or st

and parse_or st =
  let left = parse_and st in
  match peek_tok st with
  | Some (Op "||") ->
      ignore (next st);
      Algebra.E_or (left, parse_or st)
  | _ -> left

and parse_and st =
  let left = parse_cmp st in
  match peek_tok st with
  | Some (Op "&&") ->
      ignore (next st);
      Algebra.E_and (left, parse_and st)
  | _ -> left

and parse_cmp st =
  let left = parse_unary st in
  match peek_tok st with
  | Some (Op (("=" | "!=" | "<" | "<=" | ">" | ">=") as op)) ->
      ignore (next st);
      let right = parse_unary st in
      (match op with
      | "=" -> Algebra.E_eq (left, right)
      | "!=" -> Algebra.E_neq (left, right)
      | "<" -> Algebra.E_lt (left, right)
      | "<=" -> Algebra.E_le (left, right)
      | ">" -> Algebra.E_gt (left, right)
      | ">=" -> Algebra.E_ge (left, right)
      | _ -> assert false)
  | _ -> left

and parse_unary st =
  match peek_tok st with
  | Some (Op "!") ->
      ignore (next st);
      Algebra.E_not (parse_unary st)
  | Some (Kw "BOUND") -> (
      ignore (next st);
      expect st Lparen "'(' after BOUND";
      let { tok; tline } = next st in
      match tok with
      | Var v ->
          expect st Rparen "')'";
          Algebra.E_bound v
      | _ -> fail tline "expected variable in BOUND")
  | Some Lparen ->
      ignore (next st);
      let e = parse_expr st in
      expect st Rparen "')'";
      e
  | _ -> Algebra.E_atom (parse_term_atom st)

(* Group graph pattern, folded left to right (SPARQL 1.1 §18.2.2): an
   OPTIONAL left-joins everything before it, and what follows joins the
   result.  Between two OPTIONALs join is associative and commutative,
   so a segment's triple blocks gather into one BGP, which its VALUES
   and nested groups then join.  FILTERs scope over the whole group. *)
let rec parse_group st =
  expect st Lbrace "'{'";
  let before = ref None in
  let tps = ref [] in
  let extra = ref [] in
  let filters = ref [] in
  let join a b = Algebra.Join (a, b) in
  let close_segment () =
    let segment =
      match (!tps, List.rev !extra) with
      | [], [] -> None
      | [], g :: gs -> Some (List.fold_left join g gs)
      | tps, extras -> Some (List.fold_left join (Algebra.Bgp tps) extras)
    in
    tps := [];
    extra := [];
    match (!before, segment) with
    | Some g, Some s -> Some (join g s)
    | g, None | None, g -> g
  in
  let rec loop () =
    match peek_tok st with
    | Some Rbrace -> ignore (next st)
    | Some Dot ->
        ignore (next st);
        loop ()
    | Some (Kw "FILTER") ->
        ignore (next st);
        let e =
          match peek_tok st with
          | Some Lparen ->
              ignore (next st);
              let e = parse_expr st in
              expect st Rparen "')'";
              e
          | _ -> parse_expr st
        in
        filters := e :: !filters;
        loop ()
    | Some (Kw "VALUES") ->
        ignore (next st);
        extra := parse_values st :: !extra;
        loop ()
    | Some (Kw "OPTIONAL") ->
        ignore (next st);
        let left = Option.value (close_segment ()) ~default:(Algebra.Bgp []) in
        before := Some (Algebra.Left_join (left, parse_group st));
        loop ()
    | Some Lbrace ->
        (* nested group, possibly a UNION chain *)
        let g = parse_union_chain st in
        extra := g :: !extra;
        loop ()
    | Some _ ->
        tps := !tps @ parse_triples_block st;
        loop ()
    | None -> fail st.last_line "unterminated group pattern"
  in
  loop ();
  let base = Option.value (close_segment ()) ~default:(Algebra.Bgp []) in
  List.fold_left (fun acc e -> Algebra.Filter (e, acc)) base (List.rev !filters)

and parse_union_chain st =
  let first = parse_group st in
  let rec loop acc =
    match peek_tok st with
    | Some (Kw "UNION") ->
        ignore (next st);
        let g = parse_group st in
        loop (Algebra.Union (acc, g))
    | _ -> acc
  in
  loop first

(* SELECT projection *)
type proj_item =
  | P_var of string
  | P_agg of string * Algebra.aggregate  (* output var, aggregate *)

let parse_count st =
  expect st Lparen "'(' after COUNT";
  let agg =
    match peek_tok st with
    | Some Star ->
        ignore (next st);
        Algebra.Count_all
    | Some (Kw "DISTINCT") -> (
        ignore (next st);
        let { tok; tline } = next st in
        match tok with
        | Var v -> Algebra.Count_distinct v
        | _ -> fail tline "expected variable after DISTINCT")
    | _ -> (
        let { tok; tline } = next st in
        match tok with Var v -> Algebra.Count_var v | _ -> fail tline "expected variable or * in COUNT")
  in
  expect st Rparen "')'";
  agg

let parse_projection st =
  let items = ref [] in
  let star = ref false in
  let rec loop () =
    match peek_tok st with
    | Some Star ->
        ignore (next st);
        star := true;
        loop ()
    | Some (Var v) ->
        ignore (next st);
        items := P_var v :: !items;
        loop ()
    | Some Lparen -> (
        ignore (next st);
        let { tok; tline } = next st in
        match tok with
        | Kw "COUNT" -> (
            let agg = parse_count st in
            let { tok; tline } = next st in
            match tok with
            | Kw "AS" -> (
                let { tok; tline } = next st in
                match tok with
                | Var v ->
                    expect st Rparen "')'";
                    items := P_agg (v, agg) :: !items;
                    loop ()
                | _ -> fail tline "expected variable after AS")
            | _ -> fail tline "expected AS in aggregate projection")
        | _ -> fail tline "expected COUNT in projection")
    | _ -> ()
  in
  loop ();
  (!star, List.rev !items)

type query = {
  algebra : Algebra.t;
  projection : string list;
  is_ask : bool;
  template : Algebra.tp list option;
}

let count_of line what n =
  match int_of_string_opt n with
  | Some k when k >= 0 -> k
  | _ -> fail line "%s needs a non-negative integer, got %s" what n

let parse_modifiers st body proj_vars =
  (* GROUP BY / ORDER BY / LIMIT / OFFSET, in any sensible order. *)
  let group = ref [] and orders = ref [] and limit = ref None and offset = ref None in
  let rec loop () =
    match peek_tok st with
    | Some (Kw "GROUP") -> (
        ignore (next st);
        match next st with
        | { tok = Kw "BY"; _ } ->
            let rec vars () =
              match peek_tok st with
              | Some (Var v) ->
                  ignore (next st);
                  group := v :: !group;
                  vars ()
              | _ -> ()
            in
            vars ();
            if !group = [] then fail (cur_line st) "empty GROUP BY";
            loop ()
        | { tline; _ } -> fail tline "expected BY after GROUP")
    | Some (Kw "ORDER") -> (
        ignore (next st);
        match next st with
        | { tok = Kw "BY"; _ } ->
            let rec keys () =
              match peek_tok st with
              | Some (Var v) ->
                  ignore (next st);
                  orders := { Algebra.key = v; descending = false } :: !orders;
                  keys ()
              | Some (Kw (("ASC" | "DESC") as dir)) -> (
                  ignore (next st);
                  expect st Lparen "'('";
                  let { tok; tline } = next st in
                  match tok with
                  | Var v ->
                      expect st Rparen "')'";
                      orders := { Algebra.key = v; descending = dir = "DESC" } :: !orders;
                      keys ()
                  | _ -> fail tline "expected variable")
              | _ -> ()
            in
            keys ();
            if !orders = [] then fail (cur_line st) "empty ORDER BY";
            loop ()
        | { tline; _ } -> fail tline "expected BY after ORDER")
    | Some (Kw "LIMIT") -> (
        ignore (next st);
        match next st with
        | { tok = Integer n; tline } ->
            limit := Some (count_of tline "LIMIT" n);
            loop ()
        | { tline; _ } -> fail tline "expected integer after LIMIT")
    | Some (Kw "OFFSET") -> (
        ignore (next st);
        match next st with
        | { tok = Integer n; tline } ->
            offset := Some (count_of tline "OFFSET" n);
            loop ()
        | { tline; _ } -> fail tline "expected integer after OFFSET")
    | Some _ -> fail (cur_line st) "unexpected token after query body"
    | None -> ()
  in
  loop ();
  (body, List.rev !group, List.rev !orders, !limit, !offset, proj_vars)

let parse ?namespaces text =
  let ns = Rdf.Namespace.create () in
  (match namespaces with
  | Some t -> List.iter (fun (prefix, iri) -> Rdf.Namespace.add ns ~prefix ~iri) (Rdf.Namespace.prefixes t)
  | None -> ());
  let st = { toks = tokenize text; last_line = 1; ns; base = "" } in
  parse_prologue st;
  let { tok; tline } = next st in
  match tok with
  | Kw "ASK" ->
      let body = parse_union_chain st in
      (match peek_tok st with
      | None -> ()
      | Some _ -> fail (cur_line st) "unexpected token after ASK pattern");
      { algebra = body; projection = []; is_ask = true; template = None }
  | Kw "SELECT" ->
      let distinct =
        match peek_tok st with
        | Some (Kw "DISTINCT") ->
            ignore (next st);
            true
        | _ -> false
      in
      let star, items = parse_projection st in
      if (not star) && items = [] then fail (cur_line st) "empty SELECT projection";
      (match peek_tok st with
      | Some (Kw "WHERE") -> ignore (next st)
      | _ -> ());
      let body = parse_union_chain st in
      let body, group, orders, limit, offset, () = parse_modifiers st body () in
      let aggs = List.filter_map (function P_agg (v, a) -> Some (v, a) | P_var _ -> None) items in
      let proj_vars =
        if star then Algebra.vars_of body
        else List.map (function P_var v -> v | P_agg (v, _) -> v) items
      in
      let body =
        if aggs <> [] || group <> [] then Algebra.Extend_group (group, aggs, body) else body
      in
      let body = if orders <> [] then Algebra.Order_by (orders, body) else body in
      let body = Algebra.Project (proj_vars, body) in
      let body = if distinct then Algebra.Distinct body else body in
      let body =
        match (offset, limit) with
        | None, None -> body
        | _ -> Algebra.Slice (offset, limit, body)
      in
      { algebra = body; projection = proj_vars; is_ask = false; template = None }
  | Kw "CONSTRUCT" ->
      expect st Lbrace "'{' opening the template";
      let template = ref [] in
      let rec tmpl () =
        match peek_tok st with
        | Some Rbrace -> ignore (next st)
        | Some Dot ->
            ignore (next st);
            tmpl ()
        | Some _ ->
            template := !template @ parse_triples_block st;
            tmpl ()
        | None -> fail st.last_line "unterminated CONSTRUCT template"
      in
      tmpl ();
      (match peek_tok st with
      | Some (Kw "WHERE") -> ignore (next st)
      | _ -> ());
      let body = parse_union_chain st in
      let body, group, orders, limit, offset, () = parse_modifiers st body () in
      if group <> [] then fail (cur_line st) "GROUP BY is not allowed with CONSTRUCT";
      let body = if orders <> [] then Algebra.Order_by (orders, body) else body in
      let body =
        match (offset, limit) with
        | None, None -> body
        | _ -> Algebra.Slice (offset, limit, body)
      in
      {
        algebra = body;
        projection = Algebra.vars_of body;
        is_ask = false;
        template = Some !template;
      }
  | _ -> fail tline "expected SELECT, ASK or CONSTRUCT"
