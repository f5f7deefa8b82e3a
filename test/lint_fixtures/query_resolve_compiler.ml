(* Fixture: query-resolve, negative case.  Scanned as
   lib/query/compile.ml: the query compiler is where constants resolve. *)

let term_id = Dict.Term_dict.find_term
let key t = Rdf.Term.to_string t
let term = Dict.Term_dict.decode_term
