type id_triple = {
  s : int;
  p : int;
  o : int;
}

(* Terms are keyed by their unambiguous N-Triples spelling, so the
   underlying table is a plain string dictionary and decoding re-parses
   the tag.  A marker byte distinguishes the three cases cheaply. *)
type t = {
  strings : Dictionary.t;
  mutable terms : Rdf.Term.t array;  (* id -> term, grows with the dictionary *)
}

let create ?(initial_size = 1024) () =
  {
    strings = Dictionary.create ~initial_size ();
    terms = Array.make (max initial_size 1) (Rdf.Term.Iri "-");
  }

let key_of_term t = Rdf.Term.to_string t

let store_term d id term =
  if id >= Array.length d.terms then begin
    let bigger = Array.make (max (2 * Array.length d.terms) (id + 1)) (Rdf.Term.Iri "-") in
    Array.blit d.terms 0 bigger 0 (Array.length d.terms);
    d.terms <- bigger
  end;
  d.terms.(id) <- term

let encode_term d term =
  let key = key_of_term term in
  let before = Dictionary.size d.strings in
  let id = Dictionary.encode d.strings key in
  if id >= before then store_term d id term;
  id

let find_term d term = Dictionary.find d.strings (key_of_term term)

let decode_term d id =
  if id < 0 || id >= Dictionary.size d.strings then
    invalid_arg (Printf.sprintf "Term_dict.decode_term: unknown id %d" id);
  d.terms.(id)

let spelling d id = Dictionary.decode d.strings id

let encode_triple d (t : Rdf.Triple.t) =
  { s = encode_term d t.s; p = encode_term d t.p; o = encode_term d t.o }

let find_triple d (t : Rdf.Triple.t) =
  match (find_term d t.s, find_term d t.p, find_term d t.o) with
  | Some s, Some p, Some o -> Some { s; p; o }
  | _ -> None

let decode_triple d { s; p; o } =
  Rdf.Triple.make (decode_term d s) (decode_term d p) (decode_term d o)

let size d = Dictionary.size d.strings

let memory_words d = Dictionary.memory_words d.strings + Array.length d.terms

let pp_id d ppf id =
  if id >= 0 && id < size d then Rdf.Term.pp ppf (decode_term d id)
  else Format.fprintf ppf "?%d" id
