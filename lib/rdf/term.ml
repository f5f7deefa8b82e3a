type literal = {
  value : string;
  lang : string option;
  datatype : string option;
}

type t =
  | Iri of string
  | Blank of string
  | Literal of literal

let xsd_integer = "http://www.w3.org/2001/XMLSchema#integer"

(* Every constructor keeps a term's N-Triples spelling canonical:
   [Ntriples.parse_term (to_string t) = t], which is what lets the
   dictionary store spellings alone.  An IRI therefore carries no raw
   backslash (the parser would read it as an escape), and a language
   tag is stored lowercased, as the parsers store it.  Ntriples cuts
   terms with these character-class loops. *)
let rec iri_end s i n =
  if i >= n then n
  else
    match String.unsafe_get s i with
    | ' ' | '\t' | '\n' | '\r' | '<' | '>' | '\\' -> i
    | _ -> iri_end s (i + 1) n

let rec label_end s i n =
  if i >= n then n
  else
    match String.unsafe_get s i with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> label_end s (i + 1) n
    | _ -> i

let rec tag_end s i n =
  if i >= n then n
  else
    match String.unsafe_get s i with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' -> tag_end s (i + 1) n
    | _ -> i

let check_iri what s =
  let n = String.length s in
  if n = 0 then invalid_arg (what ^ ": empty");
  let i = iri_end s 0 n in
  if i < n then invalid_arg (Printf.sprintf "%s: illegal character %C in %S" what s.[i] s)

let iri s =
  check_iri "Term.iri" s;
  Iri s

let cut_iri s lo stop =
  let i = iri_end s lo stop in
  if i = lo || i >= stop || String.unsafe_get s i <> '>' then raise Not_found;
  Iri (String.sub s lo (i - lo))

let blank s =
  if s = "" then invalid_arg "Term.blank: empty label";
  if label_end s 0 (String.length s) < String.length s then
    invalid_arg "Term.blank: illegal label character";
  Blank s

let lang_tag l =
  if l = "" || tag_end l 0 (String.length l) < String.length l then
    invalid_arg (Printf.sprintf "Term.literal: illegal language tag %S" l);
  String.lowercase_ascii l

let literal ?lang ?datatype value =
  match (lang, datatype) with
  | Some _, Some _ -> invalid_arg "Term.literal: both lang and datatype given"
  | Some l, None -> Literal { value; lang = Some (lang_tag l); datatype = None }
  | None, Some dt ->
      check_iri "Term.literal datatype" dt;
      Literal { value; lang = None; datatype }
  | None, None -> Literal { value; lang = None; datatype = None }

let string_literal value = Literal { value; lang = None; datatype = None }
let typed_literal value ~datatype = literal ~datatype value
let int_literal n = Literal { value = string_of_int n; lang = None; datatype = Some xsd_integer }

let is_iri = function Iri _ -> true | Blank _ | Literal _ -> false
let is_blank = function Blank _ -> true | Iri _ | Literal _ -> false
let is_literal = function Literal _ -> true | Iri _ | Blank _ -> false

let as_iri = function Iri s -> Some s | Blank _ | Literal _ -> None
let literal_value = function Literal l -> Some l.value | Iri _ | Blank _ -> None

let compare_option cmp a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> cmp x y

let compare a b =
  match (a, b) with
  | Iri x, Iri y -> String.compare x y
  | Iri _, (Blank _ | Literal _) -> -1
  | Blank _, Iri _ -> 1
  | Blank x, Blank y -> String.compare x y
  | Blank _, Literal _ -> -1
  | Literal _, (Iri _ | Blank _) -> 1
  | Literal x, Literal y ->
      let c = String.compare x.value y.value in
      if c <> 0 then c
      else
        let c = compare_option String.compare x.lang y.lang in
        if c <> 0 then c else compare_option String.compare x.datatype y.datatype

let equal a b = compare a b = 0

(* N-Triples string escaping for literal values. *)
let escape_literal s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_string = function
  | Iri s ->
      (* One allocation: this spelling is the dictionary key every
         encode and every query constant looks up. *)
      let n = String.length s in
      let b = Bytes.create (n + 2) in
      Bytes.set b 0 '<';
      Bytes.blit_string s 0 b 1 n;
      Bytes.set b (n + 1) '>';
      Bytes.unsafe_to_string b
  | Blank l -> "_:" ^ l
  | Literal { value; lang = Some lang; _ } -> "\"" ^ escape_literal value ^ "\"@" ^ lang
  | Literal { value; datatype = Some dt; _ } -> "\"" ^ escape_literal value ^ "\"^^<" ^ dt ^ ">"
  | Literal { value; _ } -> "\"" ^ escape_literal value ^ "\""

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
