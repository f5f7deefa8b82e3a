type atom =
  | Slot of int
  | Id of int
  | Absent

type tp = {
  src : Algebra.tp;
  s : atom;
  p : atom;
  o : atom;
  pattern : Hexa.Pattern.t option;
  slots : int list;
}

type operand =
  | Var of int
  | Const of int
  | Num of float
  | Invalid

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type expr =
  | Cmp of cmp * operand * operand
  | Bound of int
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Error

type aggregate =
  | Count_all
  | Count_var of int
  | Count_distinct of int

type 'b t =
  | Bgp of 'b
  | Join of 'b t * 'b t
  | Left_join of 'b t * 'b t
  | Union of 'b t * 'b t
  | Values of int array * int array list
  | Filter of expr * 'b t
  | Distinct of 'b t
  | Project of int array * 'b t
  | Extend_group of int array * (int * aggregate) list * 'b t
  | Order_by of (int * bool) list * 'b t
  | Slice of int option * int option * 'b t

type query = {
  tree : tp list t;
  names : string array;
}

let term_id = Dict.Term_dict.find_term

(* Slot numbering: first occurrence wins.  Queries name a handful of
   variables, so an association list beats a hash table here. *)
type numbering = { mutable assigned : (string * int) list; mutable next : int }

let slot_of slots v =
  match List.assoc_opt v slots.assigned with
  | Some i -> i
  | None ->
      let i = slots.next in
      slots.assigned <- (v, i) :: slots.assigned;
      slots.next <- i + 1;
      i

let compile_atom dict slots = function
  | Algebra.Var v -> Slot (slot_of slots v)
  | Algebra.Term t -> ( match term_id dict t with Some id -> Id id | None -> Absent)

let compile_tp dict slots (src : Algebra.tp) =
  let s = compile_atom dict slots src.s in
  let p = compile_atom dict slots src.p in
  let o = compile_atom dict slots src.o in
  let bound = function Id id -> Some (Some id) | Slot _ -> Some None | Absent -> None in
  let pattern =
    match (bound s, bound p, bound o) with
    | Some s, Some p, Some o -> Some { Hexa.Pattern.s; p; o }
    | _ -> None
  in
  let add a acc = match a with Slot i when not (List.mem i acc) -> i :: acc | _ -> acc in
  { src; s; p; o; pattern; slots = List.rev (add o (add p (add s []))) }

let numeric_types = List.map Rdf.Namespace.xsd [ "integer"; "decimal"; "double"; "int"; "long" ]

let numeric = function
  | Rdf.Term.Literal { value; datatype = Some dt; _ } when List.mem dt numeric_types ->
      float_of_string_opt value
  | _ -> None

(* A stored spelling is canonical, so it ends in ["^^<dt>"] exactly
   when its datatype is [dt]: only those spellings are parsed. *)
let numeric_suffixes = List.map (fun dt -> "\"^^<" ^ dt ^ ">") numeric_types

let rec has_suffix s = function
  | [] -> false
  | suffix :: rest -> String.ends_with ~suffix s || has_suffix s rest

let numeric_spelling s =
  if String.length s > 0 && s.[0] = '"' && has_suffix s numeric_suffixes then
    numeric (Rdf.Ntriples.parse_term s)
  else None

(* Filters compare numbers by value, so an integral numeric constant
   stays comparable even when no triple mentions it. *)
let compile_operand dict slots = function
  | Algebra.E_atom (Algebra.Var v) -> Var (slot_of slots v)
  | Algebra.E_atom (Algebra.Term t) -> (
      match term_id dict t with
      | Some id -> Const id
      | None -> ( match numeric t with Some f when Float.is_integer f -> Num f | _ -> Invalid))
  | _ -> Invalid

let rec compile_expr dict slots (e : Algebra.expr) =
  let cmp op a b = Cmp (op, compile_operand dict slots a, compile_operand dict slots b) in
  match e with
  | Algebra.E_atom _ -> Error
  | E_bound v -> Bound (slot_of slots v)
  | E_not e -> Not (compile_expr dict slots e)
  | E_and (a, b) ->
      let a = compile_expr dict slots a in
      And (a, compile_expr dict slots b)
  | E_or (a, b) ->
      let a = compile_expr dict slots a in
      Or (a, compile_expr dict slots b)
  | E_eq (a, b) -> cmp Eq a b
  | E_neq (a, b) -> cmp Neq a b
  | E_lt (a, b) -> cmp Lt a b
  | E_le (a, b) -> cmp Le a b
  | E_gt (a, b) -> cmp Gt a b
  | E_ge (a, b) -> cmp Ge a b

(* VALUES in slot form: the header's distinct slots, and the rows that
   can join data.  A row naming a term the dictionary does not hold, of
   the wrong length, or giving one variable two values is dropped. *)
let compile_values dict slots vs rows =
  let header = Array.of_list (List.sort_uniq compare (List.map (slot_of slots) vs)) in
  let column s =
    let rec find i = if header.(i) = s then i else find (i + 1) in
    find 0
  in
  let row_of cells =
    if List.length cells <> List.length vs then None
    else
      let row = Array.make (Array.length header) (-1) in
      let set v cell =
        match cell with
        | None -> ()
        | Some t -> (
            match term_id dict t with
            | None -> raise Exit
            | Some id ->
                let i = column (slot_of slots v) in
                if row.(i) >= 0 && row.(i) <> id then raise Exit;
                row.(i) <- id)
      in
      match List.iter2 set vs cells with () -> Some row | exception Exit -> None
  in
  Values (header, List.filter_map row_of rows)

let rec compile_tree dict slots (q : Algebra.t) =
  let sub = compile_tree dict slots in
  let slot_array vs = Array.of_list (List.map (slot_of slots) vs) in
  match q with
  | Algebra.Bgp tps -> Bgp (List.map (compile_tp dict slots) tps)
  | Join (a, b) ->
      let a = sub a in
      Join (a, sub b)
  | Left_join (a, b) ->
      let a = sub a in
      Left_join (a, sub b)
  | Union (a, b) ->
      let a = sub a in
      Union (a, sub b)
  | Values (vs, rows) -> compile_values dict slots vs rows
  | Filter (e, q) ->
      let q = sub q in
      Filter (compile_expr dict slots e, q)
  | Distinct q -> Distinct (sub q)
  | Project (vs, q) ->
      let q = sub q in
      Project (slot_array vs, q)
  | Extend_group (keys, aggs, q) ->
      let q = sub q in
      let agg (out, a) =
        let a =
          match a with
          | Algebra.Count_all -> Count_all
          | Count_var v -> Count_var (slot_of slots v)
          | Count_distinct v -> Count_distinct (slot_of slots v)
        in
        (slot_of slots out, a)
      in
      Extend_group (slot_array keys, List.map agg aggs, q)
  | Order_by (orders, q) ->
      let q = sub q in
      Order_by (List.map (fun { Algebra.key; descending } -> (slot_of slots key, descending)) orders, q)
  | Slice (offset, limit, q) -> Slice (offset, limit, sub q)

let names_of slots =
  let names = Array.make slots.next "" in
  List.iter (fun (v, i) -> names.(i) <- v) slots.assigned;
  names

let compile dict q =
  let slots = { assigned = []; next = 0 } in
  let tree = compile_tree dict slots q in
  { tree; names = names_of slots }

let bgp dict tps =
  let slots = { assigned = []; next = 0 } in
  List.map (compile_tp dict slots) tps

let rec map_bgp f = function
  | Bgp b -> Bgp (f b)
  | Join (a, b) ->
      let a = map_bgp f a in
      Join (a, map_bgp f b)
  | Left_join (a, b) ->
      let a = map_bgp f a in
      Left_join (a, map_bgp f b)
  | Union (a, b) ->
      let a = map_bgp f a in
      Union (a, map_bgp f b)
  | Values (h, rows) -> Values (h, rows)
  | Filter (e, q) -> Filter (e, map_bgp f q)
  | Distinct q -> Distinct (map_bgp f q)
  | Project (vs, q) -> Project (vs, map_bgp f q)
  | Extend_group (keys, aggs, q) -> Extend_group (keys, aggs, map_bgp f q)
  | Order_by (orders, q) -> Order_by (orders, map_bgp f q)
  | Slice (offset, limit, q) -> Slice (offset, limit, map_bgp f q)

let atom_at tp = function
  | Hexa.Pattern.Subj -> tp.s
  | Hexa.Pattern.Pred -> tp.p
  | Hexa.Pattern.Obj -> tp.o

