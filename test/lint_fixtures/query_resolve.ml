(* Fixture: query-resolve.  Scanned as lib/query/, where constants
   resolve only in the query compiler and cells decode only in Results.
   Both qualified spellings fire; a waiver counts only inside a comment,
   so the string-smuggled one before the last hit does not shield it. *)

let bad1 dict t = Dict.Term_dict.find_term dict t
let bad2 t = Rdf.Term.to_string t

let ok1 dict t = Term_dict.find_term dict t (* lint: allow query-resolve *)

(* lint: allow query-resolve *)
let ok2 t = Term.to_string t

let mentioned = "Rdf.Term.to_string is fine inside a string"
let smuggled = "lint: allow query-resolve"
let bad3 dict t = Term_dict.find_term dict t

(* A term parse per call is as bad as a lookup. *)
let bad4 dict id = Dict.Term_dict.decode_term dict id
let bad5 dict id = Term_dict.decode_term dict id

(* lint: allow query-resolve *)
let ok3 dict id = Term_dict.decode_term dict id
