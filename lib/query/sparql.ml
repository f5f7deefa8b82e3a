exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun msg -> raise (Parse_error (line, msg))) fmt

(* --- scanner --------------------------------------------------------- *)

(* One cursor over the text, as in [Rdf.Ntriples]: the parser pulls one
   token at a time and keeps one of lookahead.  Keywords are matched
   case-insensitively where they stand, an IRI is cut and checked in
   one pass ([Rdf.Term.cut_iri]), and only a string holding an escape
   or an IRI the fast cut refuses takes a slower path.  The cursor
   moves past a token only once the token is whole, so a scanning error
   leaves it on the offending token. *)

type token =
  | Var of string  (* without the sigil *)
  | Iri of Rdf.Term.t  (* an [Rdf.Term.Iri], cut and checked in one pass *)
  | Iriref of string  (* the slow path's raw text, checked where it is used *)
  | Pname of string
  | Str of string
  | Langtag of string
  | Hathat
  | Integer of string
  | Decimal of string
  | Boolean of bool
  | Tok_a
  | Lbrace | Rbrace | Lparen | Rparen | Dot | Semi | Comma | Star
  | Eq | Neq | Lt | Le | Gt | Ge | And | Or | Not  (* = != < <= > >= && || ! *)
  (* keywords, matched in any case *)
  | K_select | K_ask | K_construct | K_where | K_prefix | K_base | K_distinct | K_count | K_as
  | K_filter | K_bound | K_optional | K_union | K_values | K_undef
  | K_group | K_order | K_by | K_asc | K_desc | K_limit | K_offset
  | Eof

(* The keywords of each length, for the scanner to match a word against. *)
let keywords = function
  | 2 -> [ ("AS", K_as); ("BY", K_by) ]
  | 3 -> [ ("ASK", K_ask); ("ASC", K_asc) ]
  | 4 -> [ ("BASE", K_base); ("DESC", K_desc) ]
  | 5 ->
      [ ("WHERE", K_where); ("UNION", K_union); ("GROUP", K_group); ("ORDER", K_order);
        ("LIMIT", K_limit); ("COUNT", K_count); ("BOUND", K_bound); ("UNDEF", K_undef) ]
  | 6 ->
      [ ("SELECT", K_select); ("FILTER", K_filter); ("OFFSET", K_offset); ("PREFIX", K_prefix);
        ("VALUES", K_values) ]
  | 8 -> [ ("DISTINCT", K_distinct); ("OPTIONAL", K_optional) ]
  | 9 -> [ ("CONSTRUCT", K_construct) ]
  | _ -> []

type state = {
  text : string;
  mutable pos : int;
  mutable line : int;  (* the cursor's line; a token's line ends are not counted *)
  mutable tok : token;  (* the lookahead *)
  mutable tline : int;  (* its line *)
  mutable last_line : int;  (* the line of the last token taken *)
  given : Rdf.Namespace.table option;  (* the caller's prefixes, read in place *)
  mutable ns : Rdf.Namespace.table option;  (* a copy, made by the first PREFIX *)
  mutable base : string;
}

(* The character at [i], or NUL past the end: no test below accepts NUL. *)
let peek s i = if i < String.length s then String.unsafe_get s i else '\000'

let is_digit c = c >= '0' && c <= '9'

let is_pname_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let is_var_char c = match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

(* One-character names, the usual [?x], are shared rather than cut.
   domain-safety: immutable-after-init — filled at module init, only
   read after. *)
let short_names = Array.init 256 (fun c -> String.make 1 (Char.chr c))

let var_name s lo len = if len = 1 then short_names.(Char.code s.[lo]) else String.sub s lo len

(* The first index from [i] whose character is not in the class [is]. *)
let rec class_end is s i =
  if i < String.length s && is (String.unsafe_get s i) then class_end is s (i + 1) else i

(* Past blanks, line ends and comments.  "\r\n", "\n" and a lone "\r"
   each end one line, as in [Rdf.Ntriples]. *)
let rec skip_blank st =
  let s = st.text in
  if st.pos < String.length s then
    match String.unsafe_get s st.pos with
    | ' ' | '\t' ->
        st.pos <- st.pos + 1;
        skip_blank st
    | '\n' ->
        st.pos <- st.pos + 1;
        st.line <- st.line + 1;
        skip_blank st
    | '\r' ->
        st.pos <- st.pos + 1;
        if peek s st.pos <> '\n' then st.line <- st.line + 1;
        skip_blank st
    | '#' ->
        st.pos <- class_end (fun c -> c <> '\n' && c <> '\r') s st.pos;
        skip_blank st
    | _ -> ()

(* [s.[lo ..]] spells keyword [k] (upper case) in any case. *)
let rec same_upper s lo k i =
  i = String.length k
  || (Char.uppercase_ascii (String.unsafe_get s (lo + i)) = String.unsafe_get k i
     && same_upper s lo k (i + 1))

let rec find_keyword s lo = function
  | [] -> Eof
  | (k, tok) :: rest -> if same_upper s lo k 0 then tok else find_keyword s lo rest

(* The keyword spelled at [s.[lo .. lo + len - 1]], or [Eof] for none. *)
let keyword s lo len = find_keyword s lo (keywords len)

let take st len tok =
  st.pos <- st.pos + len;
  tok

(* At '<' (not "<="): an IRI, or less-than.  The fast cut stops at the
   first character [Rdf.Term.iri] refuses; unless that is the closing
   '>', the text up to '>' is cut as it stands and judged where it is
   used — but an IRI has no blank or line end before its '>', so a '<'
   followed by one is less-than. *)
let scan_iri st =
  let s = st.text and i = st.pos in
  match Rdf.Term.cut_iri s (i + 1) (String.length s) with
  | Rdf.Term.Iri raw as t -> take st (String.length raw + 2) (Iri t)
  | Rdf.Term.Blank _ | Rdf.Term.Literal _ -> assert false
  | exception Not_found ->
      let j = class_end (fun c -> c <> '>' && c <> ' ' && c <> '\t' && c <> '\n' && c <> '\r') s (i + 1) in
      if peek s j = '>' then take st (j - i + 1) (Iriref (String.sub s (i + 1) (j - i - 1)))
      else take st 1 Lt

(* A string without escapes is cut as it stands; one with escapes is
   cut to its closing quote and unescaped.  Line ends inside a string
   are not counted. *)
let scan_string st =
  let s = st.text and n = String.length st.text in
  let lo = st.pos + 1 in
  let i = class_end (fun c -> c <> '"' && c <> '\\') s lo in
  if i < n && s.[i] = '"' then take st (i + 1 - st.pos) (Str (String.sub s lo (i - lo)))
  else begin
    let rec close j =
      if j >= n then fail st.line "unterminated string"
      else
        match s.[j] with
        | '"' -> j
        | '\\' -> if j + 1 >= n then fail st.line "dangling backslash" else close (j + 2)
        | _ -> close (j + 1)
    in
    let j = close i in
    match Rdf.Ntriples.unescape (String.sub s lo (j - lo)) with
    | v -> take st (j + 1 - st.pos) (Str v)
    | exception Rdf.Ntriples.Parse_error (_, m) -> fail st.line "%s" m
  end

let scan_number st =
  let s = st.text and start = st.pos in
  let signed = s.[start] = '+' || s.[start] = '-' in
  let j = class_end is_digit s (if signed then start + 1 else start) in
  if peek s j = '.' && is_digit (peek s (j + 1)) then begin
    let j = class_end is_digit s (j + 1) in
    take st (j - start) (Decimal (String.sub s start (j - start)))
  end
  else if j = start + Bool.to_int signed then fail st.line "malformed number"
  else take st (j - start) (Integer (String.sub s start (j - start)))

let rec has_colon s i j = i < j && (String.unsafe_get s i = ':' || has_colon s (i + 1) j)

(* [s.[lo ..]] starts with [w], case and all. *)
let rec spells s lo w i = i = String.length w || (peek s (lo + i) = w.[i] && spells s lo w (i + 1))

(* A word: a keyword in any case, [true]/[false], or a prefixed name.
   The dots that end a word end the triple instead. *)
let scan_word st =
  let s = st.text and lo = st.pos in
  let j = ref (class_end is_pname_char s lo) in
  while !j > lo && s.[!j - 1] = '.' do
    decr j
  done;
  let len = !j - lo in
  match keyword s lo len with
  | Eof ->
      if len = 4 && spells s lo "true" 0 then take st len (Boolean true)
      else if len = 5 && spells s lo "false" 0 then take st len (Boolean false)
      else if has_colon s lo !j then take st len (Pname (String.sub s lo len))
      else fail st.line "bare word %S" (String.sub s lo len)
  | tok -> take st len tok

let scan st =
  skip_blank st;
  st.tline <- st.line;
  let s = st.text and i = st.pos in
  if i >= String.length s then Eof
  else
    match String.unsafe_get s i with
    | '{' -> take st 1 Lbrace
    | '}' -> take st 1 Rbrace
    | '(' -> take st 1 Lparen
    | ')' -> take st 1 Rparen
    | ';' -> take st 1 Semi
    | ',' -> take st 1 Comma
    | '*' -> take st 1 Star
    | '=' -> take st 1 Eq
    | '!' -> if peek s (i + 1) = '=' then take st 2 Neq else take st 1 Not
    | '<' -> if peek s (i + 1) = '=' then take st 2 Le else scan_iri st
    | '>' -> if peek s (i + 1) = '=' then take st 2 Ge else take st 1 Gt
    | '&' when peek s (i + 1) = '&' -> take st 2 And
    | '|' when peek s (i + 1) = '|' -> take st 2 Or
    | '?' | '$' ->
        let j = class_end is_var_char s (i + 1) in
        if j = i + 1 then fail st.line "empty variable name";
        take st (j - i) (Var (var_name s (i + 1) (j - i - 1)))
    | '"' -> scan_string st
    | '@' ->
        let j = Rdf.Term.tag_end s (i + 1) (String.length s) in
        if j = i + 1 then fail st.line "empty language tag";
        take st (j - i) (Langtag (String.lowercase_ascii (String.sub s (i + 1) (j - i - 1))))
    | '^' when peek s (i + 1) = '^' -> take st 2 Hathat
    | '.' when not (is_digit (peek s (i + 1))) -> take st 1 Dot
    | '0' .. '9' | '+' | '-' | '.' -> scan_number st
    | 'a' when not (is_pname_char (peek s (i + 1))) -> take st 1 Tok_a
    | c when is_pname_char c -> scan_word st
    | c -> fail st.line "unexpected character %C" c

let advance st = st.tok <- scan st

(* --- parser ---------------------------------------------------------- *)

let next st =
  match st.tok with
  | Eof -> fail st.last_line "unexpected end of query"
  | tok ->
      st.last_line <- st.tline;
      advance st;
      tok

(* Take the lookahead, known to be there. *)
let skip st = ignore (next st)

let cur_line st = match st.tok with Eof -> st.last_line | _ -> st.tline

(* [tok] is a constant constructor, so [==] is equality. *)
let expect st tok what = if next st != tok then fail st.last_line "expected %s" what

let expand_pname st line pname =
  match (match st.ns with Some _ as t -> t | None -> st.given) with
  | None -> fail line "unbound prefix in %S" pname
  | Some ns -> (
      match Rdf.Namespace.expand ns pname with
      | iri -> iri
      | exception Not_found -> fail line "unbound prefix in %S" pname
      | exception Invalid_argument _ -> fail line "malformed prefixed name %S" pname)

(* The caller's table is copied only when the query binds a prefix. *)
let own_ns st =
  match st.ns with
  | Some t -> t
  | None ->
      let t = Rdf.Namespace.create () in
      let copy g = List.iter (fun (prefix, iri) -> Rdf.Namespace.add t ~prefix ~iri) (Rdf.Namespace.prefixes g) in
      Option.iter copy st.given;
      st.ns <- Some t;
      t

let has_scheme raw =
  match String.index_opt raw ':' with
  | Some i ->
      i > 0
      && String.for_all
           (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '+' | '-' | '.' -> true | _ -> false)
           (String.sub raw 0 i)
  | None -> false

let resolve_iri st raw = if st.base = "" || has_scheme raw then raw else st.base ^ raw

let iri_text = function Iri (Rdf.Term.Iri s) | Iriref s -> s | _ -> assert false

let rec parse_prologue st =
  match st.tok with
  | K_prefix -> (
      skip st;
      match next st with
      | Pname p when String.length p > 0 && p.[String.length p - 1] = ':' -> (
          let prefix = String.sub p 0 (String.length p - 1) in
          match next st with
          | (Iri _ | Iriref _) as tok ->
              Rdf.Namespace.add (own_ns st) ~prefix ~iri:(resolve_iri st (iri_text tok));
              parse_prologue st
          | _ -> fail st.last_line "expected IRI in PREFIX")
      | _ -> fail st.last_line "expected \"prefix:\" in PREFIX")
  | K_base -> (
      skip st;
      match next st with
      | (Iri _ | Iriref _) as tok ->
          st.base <- iri_text tok;
          parse_prologue st
      | _ -> fail st.last_line "expected IRI in BASE")
  | _ -> ()

(* [Rdf.Term.iri] rejects illegal characters with [Invalid_argument];
   in query text that is a syntax error. *)
let iri line s =
  match Rdf.Term.iri s with t -> Algebra.Term t | exception Invalid_argument m -> fail line "%s" m

(* A checked IRI stands as cut unless a BASE may prefix it. *)
let iri_atom st line tok =
  match tok with
  | Iri t when st.base = "" -> Algebra.Term t
  | _ -> iri line (resolve_iri st (iri_text tok))

let typed_literal line value dt =
  match Rdf.Term.literal ~datatype:dt value with
  | t -> Algebra.Term t
  | exception Invalid_argument m -> fail line "%s" m

let rdf_type = Algebra.Term (Rdf.Term.iri Rdf.Namespace.rdf_type)
let xsd_integer = Rdf.Namespace.xsd "integer"
let xsd_decimal = Rdf.Namespace.xsd "decimal"
let xsd_boolean = Rdf.Namespace.xsd "boolean"

let parse_term_atom st =
  let tok = next st in
  let tline = st.last_line in
  match tok with
  | Var v -> Algebra.Var v
  | Iri _ | Iriref _ -> iri_atom st tline tok
  | Pname p -> iri tline (expand_pname st tline p)
  | Tok_a -> rdf_type
  | Integer s -> Algebra.Term (Rdf.Term.typed_literal s ~datatype:xsd_integer)
  | Decimal s -> Algebra.Term (Rdf.Term.typed_literal s ~datatype:xsd_decimal)
  | Boolean b -> Algebra.Term (Rdf.Term.typed_literal (string_of_bool b) ~datatype:xsd_boolean)
  | Str value -> (
      match st.tok with
      | Langtag lang ->
          skip st;
          Algebra.Term (Rdf.Term.literal ~lang value)
      | Hathat -> (
          skip st;
          match next st with
          | (Iri _ | Iriref _) as tok -> typed_literal st.last_line value (resolve_iri st (iri_text tok))
          | Pname p -> typed_literal st.last_line value (expand_pname st st.last_line p)
          | _ -> fail st.last_line "expected datatype IRI")
      | _ -> Algebra.Term (Rdf.Term.string_literal value))
  | _ -> fail tline "expected a term or variable"

(* A triples block — a subject, then ';'-separated predicates, each
   with ','-separated objects — consed onto [acc], newest first. *)
let rec objects st s p acc =
  let acc = Algebra.tp s p (parse_term_atom st) :: acc in
  match st.tok with
  | Comma ->
      skip st;
      objects st s p acc
  | _ -> acc

let rec predicates st s acc =
  let acc = objects st s (parse_term_atom st) acc in
  match st.tok with
  | Semi -> (
      skip st;
      match st.tok with Dot | Rbrace | Eof -> acc | _ -> predicates st s acc)
  | _ -> acc

let triples st acc = predicates st (parse_term_atom st) acc

(* VALUES ?x { t1 t2 }  or  VALUES (?x ?y) { (t1 t2) (t3 t4) } *)
let parse_values_term st =
  match st.tok with
  | K_undef ->
      skip st;
      None
  | _ -> (
      match parse_term_atom st with
      | Algebra.Term t -> Some t
      | Algebra.Var _ -> fail (cur_line st) "variables are not allowed in VALUES data")

let parse_values st =
  let vars =
    match st.tok with
    | Var v ->
        skip st;
        [ v ]
    | Lparen ->
        skip st;
        let rec vars acc =
          match st.tok with
          | Var v ->
              skip st;
              vars (v :: acc)
          | Rparen ->
              skip st;
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
    match st.tok with
    | Rbrace -> skip st
    | Lparen ->
        skip st;
        let row = List.map (fun _ -> parse_values_term st) vars in
        expect st Rparen "')' closing a VALUES row";
        rows := row :: !rows;
        loop ()
    | Eof -> fail (cur_line st) "malformed VALUES data"
    | _ when List.length vars = 1 ->
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
  match st.tok with
  | Or ->
      skip st;
      Algebra.E_or (left, parse_or st)
  | _ -> left

and parse_and st =
  let left = parse_cmp st in
  match st.tok with
  | And ->
      skip st;
      Algebra.E_and (left, parse_and st)
  | _ -> left

and parse_cmp st =
  let left = parse_unary st in
  match st.tok with
  | (Eq | Neq | Lt | Le | Gt | Ge) as op -> (
      skip st;
      let right = parse_unary st in
      match op with
      | Eq -> Algebra.E_eq (left, right)
      | Neq -> Algebra.E_neq (left, right)
      | Lt -> Algebra.E_lt (left, right)
      | Le -> Algebra.E_le (left, right)
      | Gt -> Algebra.E_gt (left, right)
      | _ -> Algebra.E_ge (left, right))
  | _ -> left

and parse_unary st =
  match st.tok with
  | Not ->
      skip st;
      Algebra.E_not (parse_unary st)
  | K_bound -> (
      skip st;
      expect st Lparen "'(' after BOUND";
      match next st with
      | Var v ->
          expect st Rparen "')'";
          Algebra.E_bound v
      | _ -> fail st.last_line "expected variable in BOUND")
  | Lparen ->
      skip st;
      let e = parse_expr st in
      expect st Rparen "')'";
      e
  | _ -> Algebra.E_atom (parse_term_atom st)

(* Group graph pattern, folded left to right (SPARQL 1.1 §18.2.2): an
   OPTIONAL left-joins everything before it, and what follows joins the
   result.  Between two OPTIONALs join is associative and commutative,
   so a segment's triple blocks gather into one BGP, which its VALUES
   and nested groups then join.  FILTERs scope over the whole group.
   The lists of a group being read are newest first. *)
type group = {
  mutable before : Algebra.t option;  (* the group up to its last OPTIONAL *)
  mutable tps : Algebra.tp list;  (* the segment's triple patterns *)
  mutable extra : Algebra.t list;  (* the segment's VALUES and nested groups *)
  mutable filters : Algebra.expr list;
}

let join a b = Algebra.Join (a, b)

let close_segment g =
  let segment =
    match (g.tps, List.rev g.extra) with
    | [], [] -> None
    | [], e :: es -> Some (List.fold_left join e es)
    | tps, extras -> Some (List.fold_left join (Algebra.Bgp (List.rev tps)) extras)
  in
  g.tps <- [];
  g.extra <- [];
  match (g.before, segment) with
  | Some a, Some s -> Some (join a s)
  | a, None | None, a -> a

let filter_expr st =
  match st.tok with
  | Lparen ->
      skip st;
      let e = parse_expr st in
      expect st Rparen "')'";
      e
  | _ -> parse_expr st

let rec parse_group st =
  expect st Lbrace "'{'";
  let g = { before = None; tps = []; extra = []; filters = [] } in
  group_items st g;
  let base = Option.value (close_segment g) ~default:(Algebra.Bgp []) in
  List.fold_left (fun acc e -> Algebra.Filter (e, acc)) base (List.rev g.filters)

and group_items st g =
  match st.tok with
  | Rbrace -> skip st
  | Dot ->
      skip st;
      group_items st g
  | K_filter ->
      skip st;
      g.filters <- filter_expr st :: g.filters;
      group_items st g
  | K_values ->
      skip st;
      g.extra <- parse_values st :: g.extra;
      group_items st g
  | K_optional ->
      skip st;
      let left = Option.value (close_segment g) ~default:(Algebra.Bgp []) in
      g.before <- Some (Algebra.Left_join (left, parse_group st));
      group_items st g
  | Lbrace ->
      (* nested group, possibly a UNION chain *)
      g.extra <- parse_union_chain st :: g.extra;
      group_items st g
  | Eof -> fail st.last_line "unterminated group pattern"
  | _ ->
      g.tps <- triples st g.tps;
      group_items st g

and parse_union_chain st = union_rest st (parse_group st)

and union_rest st acc =
  match st.tok with
  | K_union ->
      skip st;
      let g = parse_group st in
      union_rest st (Algebra.Union (acc, g))
  | _ -> acc

let parse_count st =
  expect st Lparen "'(' after COUNT";
  let agg =
    match st.tok with
    | Star ->
        skip st;
        Algebra.Count_all
    | K_distinct -> (
        skip st;
        match next st with
        | Var v -> Algebra.Count_distinct v
        | _ -> fail st.last_line "expected variable after DISTINCT")
    | _ -> (
        match next st with
        | Var v -> Algebra.Count_var v
        | _ -> fail st.last_line "expected variable or * in COUNT")
  in
  expect st Rparen "')'";
  agg

(* The SELECT list: whether it holds [*], its variables (an aggregate's
   included) and its COUNT aggregates, both newest first. *)
let rec projection st star vars aggs =
  match st.tok with
  | Star ->
      skip st;
      projection st true vars aggs
  | Var v ->
      skip st;
      projection st star (v :: vars) aggs
  | Lparen -> (
      skip st;
      match next st with
      | K_count -> (
          let agg = parse_count st in
          match next st with
          | K_as -> (
              match next st with
              | Var v ->
                  expect st Rparen "')'";
                  projection st star (v :: vars) ((v, agg) :: aggs)
              | _ -> fail st.last_line "expected variable after AS")
          | _ -> fail st.last_line "expected AS in aggregate projection")
      | _ -> fail st.last_line "expected COUNT in projection")
  | _ -> (star, vars, aggs)

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

(* GROUP BY / ORDER BY / LIMIT / OFFSET, in any sensible order; the
   keys are newest first. *)
type modifiers = {
  group : string list;
  orders : Algebra.order list;
  limit : int option;
  offset : int option;
}

let no_modifiers = { group = []; orders = []; limit = None; offset = None }

let rec group_vars st acc =
  match st.tok with
  | Var v ->
      skip st;
      group_vars st (v :: acc)
  | _ -> acc

let rec order_keys st acc =
  match st.tok with
  | Var v ->
      skip st;
      order_keys st ({ Algebra.key = v; descending = false } :: acc)
  | (K_asc | K_desc) as dir -> (
      skip st;
      expect st Lparen "'('";
      match next st with
      | Var v ->
          expect st Rparen "')'";
          order_keys st ({ Algebra.key = v; descending = dir == K_desc } :: acc)
      | _ -> fail st.last_line "expected variable")
  | _ -> acc

let rec modifiers st m =
  match st.tok with
  | K_group -> (
      skip st;
      match next st with
      | K_by ->
          let group = group_vars st m.group in
          if group = [] then fail (cur_line st) "empty GROUP BY";
          modifiers st { m with group }
      | _ -> fail st.last_line "expected BY after GROUP")
  | K_order -> (
      skip st;
      match next st with
      | K_by ->
          let orders = order_keys st m.orders in
          if orders = [] then fail (cur_line st) "empty ORDER BY";
          modifiers st { m with orders }
      | _ -> fail st.last_line "expected BY after ORDER")
  | K_limit -> (
      skip st;
      match next st with
      | Integer n -> modifiers st { m with limit = Some (count_of st.last_line "LIMIT" n) }
      | _ -> fail st.last_line "expected integer after LIMIT")
  | K_offset -> (
      skip st;
      match next st with
      | Integer n -> modifiers st { m with offset = Some (count_of st.last_line "OFFSET" n) }
      | _ -> fail st.last_line "expected integer after OFFSET")
  | Eof -> m
  | _ -> fail (cur_line st) "unexpected token after query body"

let slice offset limit body =
  match (offset, limit) with None, None -> body | _ -> Algebra.Slice (offset, limit, body)

let rec template st acc =
  match st.tok with
  | Rbrace ->
      skip st;
      List.rev acc
  | Dot ->
      skip st;
      template st acc
  | Eof -> fail st.last_line "unterminated CONSTRUCT template"
  | _ -> template st (triples st acc)

let parse_query st =
  parse_prologue st;
  match next st with
  | K_ask ->
      let body = parse_union_chain st in
      if st.tok != Eof then fail (cur_line st) "unexpected token after ASK pattern";
      { algebra = body; projection = []; is_ask = true; template = None }
  | K_select ->
      let distinct = st.tok == K_distinct in
      if distinct then skip st;
      let star, vars, aggs = projection st false [] [] in
      if (not star) && vars = [] then fail (cur_line st) "empty SELECT projection";
      if st.tok == K_where then skip st;
      let body = parse_union_chain st in
      let m = modifiers st no_modifiers in
      let group = List.rev m.group and orders = List.rev m.orders in
      let proj_vars = if star then Algebra.vars_of body else List.rev vars in
      let body =
        if aggs <> [] || group <> [] then Algebra.Extend_group (group, List.rev aggs, body) else body
      in
      let body = if orders <> [] then Algebra.Order_by (orders, body) else body in
      let body = Algebra.Project (proj_vars, body) in
      let body = if distinct then Algebra.Distinct body else body in
      { algebra = slice m.offset m.limit body; projection = proj_vars; is_ask = false; template = None }
  | K_construct ->
      expect st Lbrace "'{' opening the template";
      let template = template st [] in
      if st.tok == K_where then skip st;
      let body = parse_union_chain st in
      let m = modifiers st no_modifiers in
      if m.group <> [] then fail (cur_line st) "GROUP BY is not allowed with CONSTRUCT";
      let body = if m.orders <> [] then Algebra.Order_by (List.rev m.orders, body) else body in
      let body = slice m.offset m.limit body in
      { algebra = body; projection = Algebra.vars_of body; is_ask = false; template = Some template }
  | _ -> fail st.last_line "expected SELECT, ASK or CONSTRUCT"

let parse ?namespaces text =
  let st =
    { text; pos = 0; line = 1; tok = Eof; tline = 1; last_line = 1; given = namespaces; ns = None; base = "" }
  in
  match
    advance st;
    parse_query st
  with
  | q -> q
  | exception e ->
      (* A character the scanner refuses anywhere in the text is the
         error, whatever the parser made of the tokens before it. *)
      while st.tok != Eof do
        advance st
      done;
      raise e
