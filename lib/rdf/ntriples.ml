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
   one line end, counted in [line]), and cuts each term straight out of
   the text with the character-class loops of [Term].  A cut leaves the
   term where it lies, as the range [lo, hi) of the text, whenever that
   range is already the term's canonical spelling; only a term that
   holds an escape (or a raw tab, or an uppercase language tag) is
   built on the spot, into [built].  So the parser makes terms from
   ranges, and the id loader looks ranges up in the dictionary without
   making a term at all.  No closure, no option and no copy of a
   line. *)
type cursor = {
  text : string;
  mutable pos : int;
  stop : int;
  mutable line : int;
  mutable bol : int;  (* where the line began; error columns count from it *)
  mutable lo : int;  (* the last cut term's text is [lo, hi) *)
  mutable hi : int;
  mutable mid : int;  (* a cut literal's closing quote *)
  mutable built : Term.t;  (* the last term, when it was cut [Built] *)
}

(* What a cut found.  [Iri], [Blank] and [Literal]: the text [lo, hi) is
   the term's canonical spelling ([Term.to_string]); [Built]: the term
   is [built]. *)
type cut = Iri | Blank | Literal | Built

let no_term = Term.string_literal ""

let cursor ~line text =
  { text; pos = 0; stop = String.length text; line; bol = 0; lo = 0; hi = 0; mid = 0; built = no_term }

(* The first [ch] or line end at or after [i]. *)
let rec upto ch s i stop =
  if i >= stop then stop
  else
    match String.unsafe_get s i with
    | '\n' | '\r' -> i
    | c -> if c = ch then i else upto ch s (i + 1) stop

(* A literal's closing quote, a backslash, a raw tab (which the
   canonical spelling escapes) or a line end. *)
let rec quote_end s i stop =
  if i >= stop then stop
  else
    match String.unsafe_get s i with
    | '"' | '\\' | '\t' | '\n' | '\r' -> i
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

let rec lowercase s i stop =
  i >= stop || match String.unsafe_get s i with 'A' .. 'Z' -> false | _ -> lowercase s (i + 1) stop

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
    c.line <- c.line + 1;
    c.bol <- c.pos
  end

let expect c ch =
  if c.pos < c.stop && c.text.[c.pos] = ch then c.pos <- c.pos + 1
  else if at_eol c then fail c.line "expected %C, found end of line" ch
  else fail c.line "expected %C, found %C at column %d" ch c.text.[c.pos] (c.pos - c.bol)

(* An IRI is cut and checked in one pass up to its '>'
   ([Term.iri_end]).  An escape or a refused character takes the slow
   path: the text up to '>' is unescaped, and [Term.iri] judges it. *)
let cut_iri c =
  expect c '<';
  let close = Term.iri_end c.text c.pos c.stop in
  if close > c.pos && close < c.stop && c.text.[close] = '>' then begin
    c.pos <- close + 1;
    Iri
  end
  else begin
    let close = upto '>' c.text c.pos c.stop in
    if close >= c.stop || c.text.[close] <> '>' then fail c.line "unterminated IRI";
    let iri = unescape_at c.line c.text c.pos close in
    c.pos <- close + 1;
    (match Term.iri iri with t -> c.built <- t | exception Invalid_argument msg -> fail c.line "%s" msg);
    Built
  end

(* A literal's value: cut from the text, or already unescaped. *)
let value_of c plain value = if plain then String.sub c.text (c.lo + 1) (c.mid - c.lo - 1) else value

(* A literal whose value reaches its closing quote with no escape and
   no raw tab, and whose tag is lowercase or whose datatype is cut, is
   its own canonical spelling.  Otherwise its value is unescaped (the
   slow path) and the term built. *)
let cut_literal c =
  expect c '"';
  let s = c.text and lo = c.pos in
  let i = quote_end s lo c.stop in
  let plain = i < c.stop && s.[i] = '"' in
  let close = if plain then i else close_quote c.line s i c.stop in
  let value = if plain then "" else unescape_at c.line s lo close in
  c.mid <- close;
  c.pos <- close + 1;
  if c.pos < c.stop && s.[c.pos] = '@' then begin
    c.pos <- c.pos + 1;
    let tag = c.pos in
    c.pos <- Term.tag_end s tag c.stop;
    if c.pos = tag then fail c.line "empty language tag";
    if plain && lowercase s tag c.pos then Literal
    else begin
      c.built <- Term.literal ~lang:(String.sub s tag (c.pos - tag)) (value_of c plain value);
      Built
    end
  end
  else if c.pos < c.stop && s.[c.pos] = '^' then begin
    c.pos <- c.pos + 1;
    expect c '^';
    match cut_iri c with
    | Iri when plain -> Literal
    | Iri ->
        c.built <- Term.literal ~datatype:(String.sub s (close + 4) (c.pos - close - 5)) value;
        Built
    | _ ->
        (match c.built with
        | Term.Iri dt -> c.built <- Term.literal ~datatype:dt (value_of c plain value)
        | Term.Blank _ | Term.Literal _ -> assert false);
        Built
  end
  else if plain then Literal
  else begin
    c.built <- Term.string_literal value;
    Built
  end

type role = Subject | Predicate | Object

let cut c role =
  let name = match role with Subject -> "subject" | Predicate -> "predicate" | Object -> "object" in
  if at_eol c then fail c.line "missing %s" name;
  c.lo <- c.pos;
  let k =
    match (c.text.[c.pos], role) with
    | '<', _ -> cut_iri c
    | '_', (Subject | Object) ->
        expect c '_';
        expect c ':';
        let label = c.pos in
        c.pos <- Term.label_end c.text label c.stop;
        if c.pos = label then fail c.line "empty blank node label";
        Blank
    | '"', Object -> cut_literal c
    | ch, Predicate -> fail c.line "predicate must be an IRI, found %C" ch
    | ch, (Subject | Object) -> fail c.line "unexpected %C at start of %s" ch name
  in
  c.hi <- c.pos;
  k

(* Past blanks and any comment or blank line: [true] when a statement
   starts here. *)
let statement_starts c =
  skip_ws c;
  if at_rest c then begin
    next_line c;
    false
  end
  else true

(* After a statement's object: its '.', then nothing but a comment up
   to the line end. *)
let end_statement c =
  skip_ws c;
  expect c '.';
  skip_ws c;
  if not (at_rest c) then fail c.line "trailing garbage %C after statement" c.text.[c.pos];
  next_line c

(* --- terms --------------------------------------------------------- *)

(* The IRIs a parse has met, one term per spelling: [terms.(id)] is the
   IRI that [iris] numbers [id]. *)
type shared = { iris : Dictionary.t; mutable terms : Term.t array }

let shared () = Some { iris = Dictionary.create ~initial_size:64 (); terms = Array.make 64 no_term }

(* The IRI spelled [text.[lo .. hi - 1]] ('<' to '>'), an IRI cut
   checked: with a [shared] table, the one term of its spelling. *)
let iri_term shared text lo hi =
  match shared with
  | None -> Term.cut_iri text (lo + 1) hi
  | Some sh ->
      let known = Dictionary.size sh.iris in
      let id = Dictionary.encode_sub sh.iris text lo (hi - lo) in
      if id < known then Array.unsafe_get sh.terms id
      else begin
        let t = Term.cut_iri text (lo + 1) hi in
        if id = Array.length sh.terms then begin
          let bigger = Array.make (2 * id) no_term in
          Array.blit sh.terms 0 bigger 0 id;
          sh.terms <- bigger
        end;
        sh.terms.(id) <- t;
        t
      end

(* The term the last cut found: made from its range, whose characters
   the cut checked, so no constructor can refuse it. *)
let term c shared = function
  | Built -> c.built
  | Iri -> iri_term shared c.text c.lo c.hi
  | Blank -> Term.blank (String.sub c.text (c.lo + 2) (c.hi - c.lo - 2))
  | Literal ->
      let value = String.sub c.text (c.lo + 1) (c.mid - c.lo - 1) in
      if c.hi = c.mid + 1 then Term.string_literal value
      else if c.text.[c.mid + 1] = '@' then
        Term.literal ~lang:(String.sub c.text (c.mid + 2) (c.hi - c.mid - 2)) value
      else (
        match iri_term shared c.text (c.mid + 3) c.hi with
        | Term.Iri dt -> Term.literal ~datatype:dt value
        | Term.Blank _ | Term.Literal _ -> assert false)

(* One line: its statement, if it has one, is pushed on [acc]. *)
let scan_line c shared acc =
  if not (statement_starts c) then acc
  else begin
    let s = term c shared (cut c Subject) in
    skip_ws c;
    let p = term c shared (cut c Predicate) in
    skip_ws c;
    let o = term c shared (cut c Object) in
    end_statement c;
    Triple.make s p o :: acc
  end

let scan_all c shared =
  let rec go acc = if c.pos < c.stop then go (scan_line c shared acc) else List.rev acc in
  go []

(* --- ids ----------------------------------------------------------- *)

let encode_cut d text k lo hi built =
  match k with
  | Built -> Dictionary.encode d (Term.to_string built)
  | Iri | Blank | Literal -> Dictionary.encode_sub d text lo (hi - lo)

(* One line: its statement, if it has one, encoded object, then
   predicate, then subject, and handed to [f s p o]. *)
let encode_line c d f =
  if statement_starts c then begin
    let ks = cut c Subject in
    let s_lo = c.lo and s_hi = c.hi and s_built = c.built in
    skip_ws c;
    let kp = cut c Predicate in
    let p_lo = c.lo and p_hi = c.hi and p_built = c.built in
    skip_ws c;
    let ko = cut c Object in
    end_statement c;
    let o = encode_cut d c.text ko c.lo c.hi c.built in
    let p = encode_cut d c.text kp p_lo p_hi p_built in
    let s = encode_cut d c.text ks s_lo s_hi s_built in
    f s p o
  end

(* Past the last line end of [b.[0 .. filled - 1]] that is known whole
   (a final '\r' may be half of a "\r\n"), searching down to [from];
   0 if there is none. *)
let rec lines_end b from filled k =
  if k < from then 0
  else
    match Bytes.unsafe_get b k with
    | '\n' -> k + 1
    | '\r' when k + 1 < filled -> k + 1
    | _ -> lines_end b from filled (k - 1)

let chunk = 65536

(* Whole lines are scanned as each read lands; the bytes after the
   last line end wait for the next read, at the front of the buffer,
   which doubles only when one line outgrows it. *)
let encode_input d read f =
  let buf = ref (Bytes.create chunk) and filled = ref 0 and line = ref 1 and eof = ref false in
  while not !eof do
    if !filled = Bytes.length !buf then begin
      let bigger = Bytes.create (2 * !filled) in
      Bytes.blit !buf 0 bigger 0 !filled;
      buf := bigger
    end;
    let from = max 0 (!filled - 1) in
    let got = read !buf !filled (Bytes.length !buf - !filled) in
    filled := !filled + got;
    eof := got = 0;
    let whole = if !eof then !filled else lines_end !buf from !filled (!filled - 1) in
    if whole > 0 then begin
      let c = cursor ~line:!line (Bytes.sub_string !buf 0 whole) in
      while c.pos < c.stop do
        encode_line c d f
      done;
      line := c.line;
      Bytes.blit !buf whole !buf 0 (!filled - whole);
      filled := !filled - whole
    end
  done

let parse_term text =
  let c = cursor ~line:0 text in
  skip_ws c;
  let term = term c None (cut c Object) in
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
  let triples = scan_line c None [] in
  if c.pos < c.stop then fail line "text after the line end";
  match triples with t :: _ -> Some t | [] -> None

let parse_string text = scan_all (cursor ~line:1 text) (shared ())

(* Each element is a line without its "\n" (as [input_line] gives it):
   the element's end is a line end, unless the element's own trailing
   "\r" (a CRLF's) already counted as one. *)
let parse_seq lines =
  let shared = shared () in
  let rec from line lines () =
    match lines () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (text, rest) ->
        let c = cursor ~line text in
        let triples = scan_all c shared in
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
