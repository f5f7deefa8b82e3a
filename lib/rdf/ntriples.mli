(** N-Triples parsing and serialization.

    The paper's pipeline converts the Barton RDF/XML dump "to triples"; the
    interchange format this repository standardises on is W3C N-Triples
    (one triple per line).  Since OCaml RDF parsing libraries are sparse,
    this is a from-scratch implementation: full string escape handling
    (tab, backspace, newline, carriage return, form feed, quote, backslash,
    [\uXXXX], [\UXXXXXXXX]), language tags, datatype IRIs,
    blank nodes and comment/blank-line skipping.

    Every entry point runs one scanner over the text in place, in one
    pass: it finds line ends itself, cuts each term straight out of the
    text, and resolves escapes only in a term that holds a backslash.
    As in W3C N-Triples' [EOL ::= [#xD#xA]+], ["\r\n"], ["\n"] and a
    lone ["\r"] each end one line; no term holds a raw CR or LF. *)

exception Parse_error of int * string
(** [Parse_error (line, message)]; [line] is 1-based and counts line
    ends as above, the same in every entry point.  [parse_line] reports
    its [?line] (default 0). *)

val parse_line : ?line:int -> string -> Triple.t option
(** Parse one line, which may end in its line end.  [None] for blank
    lines and [#] comments.
    @raise Parse_error on malformed input or text past the line end. *)

val parse_string : string -> Triple.t list
(** Parse a whole document. *)

val parse_seq : string Seq.t -> Triple.t Seq.t
(** Lazily parse a sequence of lines, each without its ["\n"] (as
    [input_line] gives them; a trailing ["\r"] is a CRLF's, not a line
    of its own).  Errors surface when forced. *)

val of_channel : in_channel -> Triple.t list
(** Reads the channel to its end, then {!parse_string}. *)

val load_file : string -> Triple.t list

val print_string : Triple.t list -> string
(** Document text, one statement per line, trailing newline. *)

val to_channel : out_channel -> Triple.t Seq.t -> int
(** Writes statements; returns the number written. *)

val save_file : string -> Triple.t list -> unit

val parse_term : string -> Term.t
(** Parse a single term in N-Triples spelling ([<iri>], [_:label],
    ["literal"@lang], ["literal"^^<dt>]) — the inverse of
    {!Term.to_string}.  @raise Parse_error on malformed input. *)

val is_term_spelling : string -> bool
(** [is_term_spelling s] holds exactly when [s] is the canonical
    spelling of a term: [Term.to_string (parse_term s) = s].  A scan
    that allocates nothing — the check a snapshot load runs on every
    dictionary entry instead of a parse. *)

val unescape : string -> string
(** Resolve N-Triples string escapes.
    @raise Parse_error (line 0) on malformed escapes. *)

