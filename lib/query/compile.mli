(** The query compiler: the one place a query meets the dictionary.

    {!compile} runs once per query, before anything executes.  It gives
    every variable of the algebra tree a column slot, so a solution is an
    [int array] row (see {!Binding} for the slot encoding), and it
    resolves every constant to its dictionary id a single time.  A
    constant the dictionary does not hold becomes {!Absent}: its pattern
    matches nothing, and its [VALUES] row is dropped.

    The operators in {!Exec} then read and write slots only; decoding
    back to terms happens once, in {!Results}. *)

(** A pattern position after compilation. *)
type atom =
  | Slot of int  (** a variable's column *)
  | Id of int  (** a constant's dictionary id *)
  | Absent  (** a constant the dictionary does not hold *)

(** A compiled triple pattern. *)
type tp = {
  src : Algebra.tp;  (** the pattern as written, for EXPLAIN *)
  s : atom;
  p : atom;
  o : atom;
  pattern : Hexa.Pattern.t option;
      (** constants bound, variables free; [None] when a constant is
          {!Absent} and the pattern can match nothing *)
  slots : int list;  (** the pattern's slots, without duplicates *)
}

(** A filter operand: a slot, or a constant already in the value order. *)
type operand =
  | Var of int
  | Const of int  (** a dictionary id *)
  | Num of float
      (** an integral numeric constant the dictionary does not hold; it
          still compares by value *)
  | Invalid  (** any other operand: evaluating it is an error *)

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type expr =
  | Cmp of cmp * operand * operand
  | Bound of int
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Error  (** a term in a boolean position: always an evaluation error *)

type aggregate =
  | Count_all
  | Count_var of int
  | Count_distinct of int

(** {!Algebra.t} over slots, with the BGP payload left open so {!Exec}
    can attach each BGP's plan. *)
type 'b t =
  | Bgp of 'b
  | Join of 'b t * 'b t
  | Left_join of 'b t * 'b t
  | Union of 'b t * 'b t
  | Values of int array * int array list
      (** header slots and rows of ids, [-1] for UNDEF; rows naming a
          term the dictionary does not hold are gone *)
  | Filter of expr * 'b t
  | Distinct of 'b t
  | Project of int array * 'b t  (** the slots kept *)
  | Extend_group of int array * (int * aggregate) list * 'b t
  | Order_by of (int * bool) list * 'b t  (** slot, descending *)
  | Slice of int option * int option * 'b t

type query = {
  tree : tp list t;
  names : string array;  (** slot -> variable name *)
}

val compile : Dict.Term_dict.t -> Algebra.t -> query

val bgp : Dict.Term_dict.t -> Algebra.tp list -> tp list
(** One BGP on its own: slots numbered from 0 in order of first
    occurrence. *)

val map_bgp : ('a -> 'b) -> 'a t -> 'b t

val term_id : Dict.Term_dict.t -> Rdf.Term.t -> int option
(** A term's dictionary id, never allocating one: the resolution every
    query-layer caller goes through. *)

val numeric : Rdf.Term.t -> float option
(** The value of a literal typed [xsd:integer], [decimal], [double],
    [int] or [long]; filters and ORDER BY compare such terms as numbers. *)

val numeric_spelling : string -> float option
(** {!numeric} of the term a canonical spelling spells
    ({!Dict.Term_dict.spelling}), parsing only a spelling typed with one
    of those datatypes: IRIs, blank nodes and other literals are
    classified from the string alone. *)

val atom_at : tp -> Hexa.Pattern.position -> atom
