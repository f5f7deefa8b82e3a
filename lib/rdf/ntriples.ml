exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun msg -> raise (Parse_error (line, msg))) fmt

let hex_value line c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail line "invalid hex digit %C" c

(* [s.[lo .. hi - 1]] with its escapes resolved: the slow path, taken
   only by a term that holds a backslash. *)
let unescape_at line s lo hi =
  let buf = Buffer.create (hi - lo) in
  let rec loop i =
    if i < hi then
      if s.[i] <> '\\' then begin
        Buffer.add_char buf s.[i];
        loop (i + 1)
      end
      else if i + 1 >= hi then fail line "dangling backslash"
      else
        match s.[i + 1] with
        | 'u' -> code (i + 2) 4
        | 'U' -> code (i + 2) 8
        | e ->
            Buffer.add_char buf
              (match e with
              | 't' -> '\t'
              | 'b' -> '\b'
              | 'n' -> '\n'
              | 'r' -> '\r'
              | 'f' -> '\012'
              | '"' | '\'' | '\\' -> e
              | _ -> fail line "unknown escape \\%c" e);
            loop (i + 2)
  and code i digits =
    if i + digits > hi then fail line "truncated \\%c escape" s.[i - 1];
    let v = ref 0 in
    for k = i to i + digits - 1 do
      v := (!v * 16) + hex_value line s.[k]
    done;
    if not (Uchar.is_valid !v) then fail line "invalid unicode code point U+%04X" !v;
    Buffer.add_utf_8_uchar buf (Uchar.of_int !v);
    loop (i + digits)
  in
  loop lo;
  Buffer.contents buf

let unescape s = unescape_at 0 s 0 (String.length s)

(* --- scanner ------------------------------------------------------- *)

(* The one scanner behind every entry point, over [text] from [pos] to
   [stop].  It finds line ends itself ("\r\n", "\n" or a lone "\r", each
   one line end, counted in [line]), cuts each term straight out of the
   text with the character-class loops of [Term], and resolves escapes
   only in a term that holds a backslash.  No closure, no option and no
   copy of a line: a term costs its string and its constructor. *)
type cursor = {
  text : string;
  mutable pos : int;
  stop : int;
  mutable line : int;
}

let cursor ~line text = { text; pos = 0; stop = String.length text; line }

(* The first [ch] or line end at or after [i]. *)
let rec upto ch s i stop =
  if i >= stop then stop
  else
    match String.unsafe_get s i with
    | '\n' | '\r' -> i
    | c -> if c = ch then i else upto ch s (i + 1) stop

(* A literal's closing quote, a backslash or a line end. *)
let rec quote_end s i stop =
  if i >= stop then stop
  else
    match String.unsafe_get s i with
    | '"' | '\\' | '\n' | '\r' -> i
    | _ -> quote_end s (i + 1) stop

(* The closing quote from [i], escapes skipped. *)
let rec close_quote line s i stop =
  if i >= stop then fail line "unterminated string literal"
  else
    match s.[i] with
    | '"' -> i
    | '\\' -> if i + 1 >= stop then fail line "dangling backslash" else close_quote line s (i + 2) stop
    | '\n' | '\r' -> fail line "unterminated string literal"
    | _ -> close_quote line s (i + 1) stop

let skip_ws c =
  while c.pos < c.stop && (c.text.[c.pos] = ' ' || c.text.[c.pos] = '\t') do
    c.pos <- c.pos + 1
  done

let at_eol c = c.pos >= c.stop || c.text.[c.pos] = '\n' || c.text.[c.pos] = '\r'

(* Nothing but a comment left on the line. *)
let at_rest c = at_eol c || c.text.[c.pos] = '#'

(* Past the rest of the line and its line end. *)
let next_line c =
  c.pos <- upto '\n' c.text c.pos c.stop;
  if c.pos < c.stop then begin
    let crlf = c.text.[c.pos] = '\r' && c.pos + 1 < c.stop && c.text.[c.pos + 1] = '\n' in
    c.pos <- c.pos + if crlf then 2 else 1;
    c.line <- c.line + 1
  end

let expect c ch =
  if c.pos < c.stop && c.text.[c.pos] = ch then c.pos <- c.pos + 1
  else if at_eol c then fail c.line "expected %C, found end of line" ch
  else fail c.line "expected %C, found %C at column %d" ch c.text.[c.pos] c.pos

(* An IRI is cut and checked in one pass up to its '>'
   ([Term.cut_iri]).  An escape or a refused character takes the slow
   path: the text up to '>' is unescaped, and [Term.iri] judges it. *)
let scan_iri c =
  expect c '<';
  match Term.cut_iri c.text c.pos c.stop with
  | Term.Iri s as t ->
      c.pos <- c.pos + String.length s + 1;
      t
  | Term.Blank _ | Term.Literal _ -> assert false
  | exception Not_found -> (
      let close = upto '>' c.text c.pos c.stop in
      if close >= c.stop || c.text.[close] <> '>' then fail c.line "unterminated IRI";
      let iri = unescape_at c.line c.text c.pos close in
      c.pos <- close + 1;
      match Term.iri iri with t -> t | exception Invalid_argument msg -> fail c.line "%s" msg)

(* A label or tag, its characters checked as they are cut ([class_end]
   is [Term.label_end] or [Term.tag_end]), so its constructor cannot
   refuse it. *)
let scan_chars c class_end what =
  let lo = c.pos in
  c.pos <- class_end c.text lo c.stop;
  if c.pos = lo then fail c.line "empty %s" what;
  String.sub c.text lo (c.pos - lo)

let scan_literal c =
  expect c '"';
  let s = c.text and lo = c.pos in
  let i = quote_end s lo c.stop in
  let value =
    if i < c.stop && s.[i] = '"' then begin
      c.pos <- i + 1;
      String.sub s lo (i - lo)
    end
    else begin
      let close = close_quote c.line s i c.stop in
      c.pos <- close + 1;
      unescape_at c.line s lo close
    end
  in
  if c.pos < c.stop && s.[c.pos] = '@' then begin
    c.pos <- c.pos + 1;
    Term.literal ~lang:(scan_chars c Term.tag_end "language tag") value
  end
  else if c.pos < c.stop && s.[c.pos] = '^' then begin
    c.pos <- c.pos + 1;
    expect c '^';
    Term.literal ~datatype:(Option.get (Term.as_iri (scan_iri c))) value
  end
  else Term.string_literal value

type role = Subject | Predicate | Object

let scan_term c role =
  let name = match role with Subject -> "subject" | Predicate -> "predicate" | Object -> "object" in
  if at_eol c then fail c.line "missing %s" name;
  match (c.text.[c.pos], role) with
  | '<', _ -> scan_iri c
  | '_', (Subject | Object) ->
      expect c '_';
      expect c ':';
      Term.blank (scan_chars c Term.label_end "blank node label")
  | '"', Object -> scan_literal c
  | ch, Predicate -> fail c.line "predicate must be an IRI, found %C" ch
  | ch, (Subject | Object) -> fail c.line "unexpected %C at start of %s" ch name

(* One line: its statement, if it has one, is pushed on [acc]. *)
let scan_line c acc =
  skip_ws c;
  if at_rest c then begin
    next_line c;
    acc
  end
  else begin
    let s = scan_term c Subject in
    skip_ws c;
    let p = scan_term c Predicate in
    skip_ws c;
    let o = scan_term c Object in
    skip_ws c;
    expect c '.';
    skip_ws c;
    if not (at_rest c) then fail c.line "trailing garbage %C after statement" c.text.[c.pos];
    next_line c;
    Triple.make s p o :: acc
  end

let scan_all c =
  let rec go acc = if c.pos < c.stop then go (scan_line c acc) else List.rev acc in
  go []

let parse_term text =
  let c = cursor ~line:0 text in
  skip_ws c;
  let term = scan_term c Object in
  skip_ws c;
  if c.pos < c.stop then fail 0 "trailing garbage %C after term" text.[c.pos];
  term

(* The canonical spellings, checked without allocating: exactly the
   strings [s] with [Term.to_string (parse_term s) = s].  An IRI or a
   datatype holds no character [Term.iri] rejects; a label holds label
   characters; a language tag is lowercase (the parsers lowercase it);
   a literal's value escapes exactly the five characters
   [Term.escape_literal] escapes, and nothing else.  Each loop is top
   level and tests its characters inline: no closure, no call per
   character. *)
let rec tag_chars s i =
  i >= String.length s
  || match String.unsafe_get s i with 'a' .. 'z' | '0' .. '9' | '-' -> tag_chars s (i + 1) | _ -> false

(* [s.[lo]] opens an IRI that ends the string. *)
let is_iri_spelling s lo =
  let n = String.length s in
  n - lo >= 3
  && s.[lo] = '<'
  && s.[n - 1] = '>'
  && Term.iri_end s (lo + 1) (n - 1) = n - 1

(* Past a literal's closing quote at [i - 1]: nothing, a tag or a
   datatype. *)
let is_suffix s i =
  let n = String.length s in
  i = n
  || (s.[i] = '@' && i + 1 < n && tag_chars s (i + 1))
  || (i + 1 < n && s.[i] = '^' && s.[i + 1] = '^' && is_iri_spelling s (i + 2))

let rec is_value s i =
  i < String.length s
  &&
  match String.unsafe_get s i with
  | '"' -> is_suffix s (i + 1)
  | '\\' -> (
      i + 1 < String.length s
      && match s.[i + 1] with '\\' | '"' | 'n' | 'r' | 't' -> is_value s (i + 2) | _ -> false)
  | '\n' | '\r' | '\t' -> false
  | _ -> is_value s (i + 1)

let is_term_spelling s =
  let n = String.length s in
  n > 0
  &&
  match s.[0] with
  | '<' -> is_iri_spelling s 0
  | '_' -> n > 2 && s.[1] = ':' && Term.label_end s 2 n = n
  | '"' -> is_value s 1
  | _ -> false

let parse_line ?(line = 0) text =
  let c = cursor ~line text in
  let triples = scan_line c [] in
  if c.pos < c.stop then fail line "text after the line end";
  match triples with t :: _ -> Some t | [] -> None

let parse_string text = scan_all (cursor ~line:1 text)

(* Each element is a line without its "\n" (as [input_line] gives it):
   the element's end is a line end, unless the element's own trailing
   "\r" (a CRLF's) already counted as one. *)
let parse_seq lines =
  let rec from line lines () =
    match lines () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (text, rest) ->
        let c = cursor ~line text in
        let triples = scan_all c in
        let ended = text <> "" && text.[String.length text - 1] = '\r' in
        Seq.append (List.to_seq triples) (from (if ended then c.line else c.line + 1) rest) ()
  in
  from 1 lines

let of_channel ic = parse_string (In_channel.input_all ic)

let load_file path = In_channel.with_open_bin path of_channel

let print_string triples =
  let buf = Buffer.create 1024 in
  List.iter
    (fun t ->
      Buffer.add_string buf (Triple.to_string t);
      Buffer.add_char buf '\n')
    triples;
  Buffer.contents buf

let to_channel oc triples =
  Seq.fold_left
    (fun n t ->
      output_string oc (Triple.to_string t);
      output_char oc '\n';
      n + 1)
    0 triples

let save_file path triples =
  Out_channel.with_open_bin path (fun oc -> ignore (to_channel oc (List.to_seq triples)))
