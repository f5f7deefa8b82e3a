type id_triple = {
  s : int;
  p : int;
  o : int;
}

module Dictionary = Rdf.Dictionary

(* Terms are keyed by their canonical N-Triples spelling, so an IRI, a
   blank node and a literal with the same text never collide, and the
   table is the plain string dictionary: no parsed term is kept.  An
   IRI is looked up in pieces ('<', the IRI, '>'), so a known one is
   found without spelling it out. *)
type t = Dictionary.t

let create ?initial_size () = Dictionary.create ?initial_size ()

let encode_term d (term : Rdf.Term.t) =
  match term with
  | Iri iri -> Dictionary.encode_iri d iri
  | Blank _ | Literal _ -> Dictionary.encode d (Rdf.Term.to_string term)

let find_term d (term : Rdf.Term.t) =
  match term with
  | Iri iri -> ( match Dictionary.find_iri d iri with -1 -> None | id -> Some id)
  | Blank _ | Literal _ -> Dictionary.find d (Rdf.Term.to_string term)

let encode_spelling d s =
  if not (Rdf.Ntriples.is_term_spelling s) then
    invalid_arg (Printf.sprintf "Term_dict.encode_spelling: %S is not a canonical spelling" s);
  Dictionary.encode d s

let spelling d id = Dictionary.decode d id

(* Canonical spellings parse: the error cannot happen. *)
let decode_term d id = Rdf.Ntriples.parse_term (spelling d id)

(* Object, then predicate, then subject: a fresh dictionary numbers a
   triple's new terms in that order, and every snapshot's ids follow
   it. *)
let encode_triple d (t : Rdf.Triple.t) =
  let o = encode_term d t.o in
  let p = encode_term d t.p in
  let s = encode_term d t.s in
  { s; p; o }

let encode_ntriples = Rdf.Ntriples.encode_input

let find_triple d (t : Rdf.Triple.t) =
  match (find_term d t.s, find_term d t.p, find_term d t.o) with
  | Some s, Some p, Some o -> Some { s; p; o }
  | _ -> None

let decode_triple d { s; p; o } =
  Rdf.Triple.make (decode_term d s) (decode_term d p) (decode_term d o)

let size = Dictionary.size

let memory_words = Dictionary.memory_words
