exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun msg -> raise (Parse_error (line, msg))) fmt

let escape = Term.escape_literal

let hex_value line c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail line "invalid hex digit %C" c

let unescape_at line s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec loop i =
    if i >= n then Buffer.contents buf
    else
      match s.[i] with
      | '\\' ->
          if i + 1 >= n then fail line "dangling backslash";
          (match s.[i + 1] with
          | 't' ->
              Buffer.add_char buf '\t';
              loop (i + 2)
          | 'b' ->
              Buffer.add_char buf '\b';
              loop (i + 2)
          | 'n' ->
              Buffer.add_char buf '\n';
              loop (i + 2)
          | 'r' ->
              Buffer.add_char buf '\r';
              loop (i + 2)
          | 'f' ->
              Buffer.add_char buf '\012';
              loop (i + 2)
          | '"' ->
              Buffer.add_char buf '"';
              loop (i + 2)
          | '\'' ->
              Buffer.add_char buf '\'';
              loop (i + 2)
          | '\\' ->
              Buffer.add_char buf '\\';
              loop (i + 2)
          | 'u' ->
              if i + 5 >= n then fail line "truncated \\u escape";
              let v = ref 0 in
              for k = i + 2 to i + 5 do
                v := (!v * 16) + hex_value line s.[k]
              done;
              add_uchar !v;
              loop (i + 6)
          | 'U' ->
              if i + 9 >= n then fail line "truncated \\U escape";
              let v = ref 0 in
              for k = i + 2 to i + 9 do
                v := (!v * 16) + hex_value line s.[k]
              done;
              add_uchar !v;
              loop (i + 10)
          | c -> fail line "unknown escape \\%c" c)
      | c ->
          Buffer.add_char buf c;
          loop (i + 1)
  and add_uchar v =
    if not (Uchar.is_valid v) then fail line "invalid unicode code point U+%04X" v;
    Buffer.add_utf_8_uchar buf (Uchar.of_int v)
  in
  loop 0

let unescape s = unescape_at 0 s

(* --- scanner ------------------------------------------------------- *)

type cursor = {
  text : string;
  mutable pos : int;
  line : int;
}

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.text && (c.text.[c.pos] = ' ' || c.text.[c.pos] = '\t')
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail c.line "expected %C, found %C at column %d" ch x c.pos
  | None -> fail c.line "expected %C, found end of line" ch

let scan_iriref c =
  expect c '<';
  let start = c.pos in
  let n = String.length c.text in
  while c.pos < n && c.text.[c.pos] <> '>' do
    c.pos <- c.pos + 1
  done;
  if c.pos >= n then fail c.line "unterminated IRI";
  let raw = String.sub c.text start (c.pos - start) in
  c.pos <- c.pos + 1;
  (* IRIs may use \u escapes too. *)
  let iri = if String.contains raw '\\' then unescape_at c.line raw else raw in
  try Term.iri iri with Invalid_argument msg -> fail c.line "%s" msg

let scan_blank c =
  expect c '_';
  expect c ':';
  let start = c.pos in
  let n = String.length c.text in
  while
    c.pos < n
    &&
    match c.text.[c.pos] with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
    | _ -> false
  do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then fail c.line "empty blank node label";
  try Term.blank (String.sub c.text start (c.pos - start))
  with Invalid_argument msg -> fail c.line "%s" msg

let scan_langtag c =
  expect c '@';
  let start = c.pos in
  let n = String.length c.text in
  while
    c.pos < n
    &&
    match c.text.[c.pos] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then fail c.line "empty language tag";
  String.lowercase_ascii (String.sub c.text start (c.pos - start))

let scan_literal c =
  expect c '"';
  let buf = Buffer.create 16 in
  let n = String.length c.text in
  let rec scan () =
    if c.pos >= n then fail c.line "unterminated string literal"
    else
      match c.text.[c.pos] with
      | '"' -> c.pos <- c.pos + 1
      | '\\' ->
          if c.pos + 1 >= n then fail c.line "dangling backslash";
          Buffer.add_char buf '\\';
          Buffer.add_char buf c.text.[c.pos + 1];
          c.pos <- c.pos + 2;
          scan ()
      | ch ->
          Buffer.add_char buf ch;
          c.pos <- c.pos + 1;
          scan ()
  in
  scan ();
  let value = unescape_at c.line (Buffer.contents buf) in
  match peek c with
  | Some '@' ->
      let lang = scan_langtag c in
      Term.literal ~lang value
  | Some '^' ->
      expect c '^';
      expect c '^';
      (match scan_iriref c with
      | Term.Iri dt -> Term.literal ~datatype:dt value
      | _ -> assert false)
  | _ -> Term.string_literal value

let scan_subject c =
  match peek c with
  | Some '<' -> scan_iriref c
  | Some '_' -> scan_blank c
  | Some ch -> fail c.line "unexpected %C at start of subject" ch
  | None -> fail c.line "missing subject"

let scan_object c =
  match peek c with
  | Some '<' -> scan_iriref c
  | Some '_' -> scan_blank c
  | Some '"' -> scan_literal c
  | Some ch -> fail c.line "unexpected %C at start of object" ch
  | None -> fail c.line "missing object"

let parse_term text =
  let c = { text; pos = 0; line = 0 } in
  skip_ws c;
  let term = scan_object c in
  skip_ws c;
  (match peek c with
  | None -> ()
  | Some ch -> fail 0 "trailing garbage %C after term" ch);
  term

(* The canonical spellings, checked without allocating: exactly the
   strings [s] with [Term.to_string (parse_term s) = s].  An IRI or a
   datatype holds no character [Term.iri] rejects; a label holds label
   characters; a language tag is lowercase (the parsers lowercase it);
   a literal's value escapes exactly the five characters
   [Term.escape_literal] escapes, and nothing else.  Each loop is top
   level and tests its characters inline: no closure, no call per
   character. *)
let rec iri_chars s i stop =
  i >= stop
  ||
  match String.unsafe_get s i with
  | ' ' | '\t' | '\n' | '\r' | '<' | '>' | '\\' -> false
  | _ -> iri_chars s (i + 1) stop

let rec label_chars s i =
  i >= String.length s
  ||
  match String.unsafe_get s i with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> label_chars s (i + 1)
  | _ -> false

let rec tag_chars s i =
  i >= String.length s
  || match String.unsafe_get s i with 'a' .. 'z' | '0' .. '9' | '-' -> tag_chars s (i + 1) | _ -> false

(* [s.[lo]] opens an IRI that ends the string. *)
let is_iri_spelling s lo =
  let n = String.length s in
  n - lo >= 3
  && s.[lo] = '<'
  && s.[n - 1] = '>'
  && iri_chars s (lo + 1) (n - 1)

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
  | '_' -> n > 2 && s.[1] = ':' && label_chars s 2
  | '"' -> is_value s 1
  | _ -> false

let parse_line ?(line = 0) text =
  let c = { text; pos = 0; line } in
  skip_ws c;
  match peek c with
  | None -> None
  | Some '#' -> None
  | Some _ ->
      let s = scan_subject c in
      skip_ws c;
      let p =
        match peek c with
        | Some '<' -> scan_iriref c
        | Some ch -> fail line "predicate must be an IRI, found %C" ch
        | None -> fail line "missing predicate"
      in
      skip_ws c;
      let o = scan_object c in
      skip_ws c;
      expect c '.';
      skip_ws c;
      (match peek c with
      | None -> ()
      | Some '#' -> ()
      | Some ch -> fail line "trailing garbage %C after statement" ch);
      Some (Triple.make s p o)

let lines_of_string text = String.split_on_char '\n' text |> List.to_seq

let parse_seq lines =
  let numbered = Seq.mapi (fun i l -> (i + 1, l)) lines in
  Seq.filter_map (fun (line, text) -> parse_line ~line text) numbered

let parse_string text = List.of_seq (parse_seq (lines_of_string text))

let seq_of_channel ic =
  let rec next () =
    match input_line ic with
    | line -> Seq.Cons (line, next)
    | exception End_of_file -> Seq.Nil
  in
  next

let of_channel ic = List.of_seq (parse_seq (seq_of_channel ic))

let load_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> of_channel ic)

let to_string t = Triple.to_string t

let print_string triples =
  let buf = Buffer.create 1024 in
  List.iter
    (fun t ->
      Buffer.add_string buf (to_string t);
      Buffer.add_char buf '\n')
    triples;
  Buffer.contents buf

let to_channel oc triples =
  let count = ref 0 in
  Seq.iter
    (fun t ->
      output_string oc (to_string t);
      output_char oc '\n';
      incr count)
    triples;
  !count

let save_file path triples =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> ignore (to_channel oc (List.to_seq triples)))
