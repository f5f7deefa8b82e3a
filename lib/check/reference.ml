(* Naive evaluation of the query algebra over the model store: lists of
   sorted association lists, nested loops everywhere.  Too simple to be
   fast and meant to be too simple to be wrong. *)

module A = Query.Algebra
module B = Query.Binding

type solution = (string * B.value) list

let rec add v x = function
  | [] -> [ (v, x) ]
  | ((w, _) as b) :: rest as l ->
      let c = compare v w in
      if c < 0 then (v, x) :: l else if c = 0 then l else b :: add v x rest

let compatible a b =
  List.for_all (fun (v, x) -> match List.assoc_opt v b with None -> true | Some y -> y = x) a

let merge a b = List.fold_left (fun acc (v, x) -> add v x acc) a b

(* --- values -------------------------------------------------------------- *)

let numeric_types = List.map Rdf.Namespace.xsd [ "integer"; "decimal"; "double"; "int"; "long" ]

let numeric_of_term = function
  | Rdf.Term.Literal { value; datatype = Some dt; _ } when List.mem dt numeric_types ->
      float_of_string_opt value
  | _ -> None

let numeric dict = function
  | B.Int n -> Some (float_of_int n)
  | B.Id id -> numeric_of_term (Dict.Term_dict.decode_term dict id)

let spelling dict = function
  | B.Int n -> string_of_int n
  | B.Id id -> Rdf.Term.to_string (Dict.Term_dict.decode_term dict id)

let compare_values dict a b =
  match (numeric dict a, numeric dict b) with
  | Some x, Some y -> compare x y
  | Some _, None -> -1
  | None, Some _ -> 1
  | None, None -> compare (spelling dict a) (spelling dict b)

(* --- filters ------------------------------------------------------------- *)

exception Error

let operand dict sol = function
  | A.E_atom (A.Var v) -> ( match List.assoc_opt v sol with Some x -> x | None -> raise Error)
  | A.E_atom (A.Term t) -> (
      match Dict.Term_dict.find_term dict t with
      | Some id -> B.Id id
      | None -> (
          (* A constant the data never mentions still compares by its
             integral numeric value. *)
          match numeric_of_term t with
          | Some f when Float.is_integer f -> B.Int (int_of_float f)
          | _ -> raise Error))
  | _ -> raise Error

let rec holds dict sol = function
  | A.E_atom _ -> raise Error
  | A.E_bound v -> List.mem_assoc v sol
  | A.E_not e -> not (holds dict sol e)
  | A.E_and (a, b) -> holds dict sol a && holds dict sol b
  | A.E_or (a, b) -> holds dict sol a || holds dict sol b
  | A.E_eq (a, b) -> cmp dict sol a b = 0
  | A.E_neq (a, b) -> cmp dict sol a b <> 0
  | A.E_lt (a, b) -> cmp dict sol a b < 0
  | A.E_le (a, b) -> cmp dict sol a b <= 0
  | A.E_gt (a, b) -> cmp dict sol a b > 0
  | A.E_ge (a, b) -> cmp dict sol a b >= 0

and cmp dict sol a b = compare_values dict (operand dict sol a) (operand dict sol b)

let passes dict sol e = match holds dict sol e with ok -> ok | exception Error -> false

(* --- ordering ------------------------------------------------------------ *)

let compare_by dict orders a b =
  let rec loop = function
    | [] -> 0
    | { A.key; descending } :: rest ->
        let c =
          match (List.assoc_opt key a, List.assoc_opt key b) with
          | None, None -> 0
          | None, Some _ -> -1
          | Some _, None -> 1
          | Some x, Some y -> compare_values dict x y
        in
        if c <> 0 then if descending then -c else c else loop rest
  in
  loop orders

(* --- evaluation ---------------------------------------------------------- *)

let bgp dict model tps =
  let triples = Model.to_list model in
  let matches sol atom id =
    match atom with
    | A.Term t -> if Dict.Term_dict.find_term dict t = Some id then Some sol else None
    | A.Var v -> (
        match List.assoc_opt v sol with
        | Some x -> if x = B.Id id then Some sol else None
        | None -> Some (add v (B.Id id) sol))
  in
  List.fold_left
    (fun sols (tp : A.tp) ->
      List.concat_map
        (fun sol ->
          List.filter_map
            (fun (tr : Dict.Term_dict.id_triple) ->
              Option.bind (matches sol tp.s tr.s) (fun sol ->
                  Option.bind (matches sol tp.p tr.p) (fun sol -> matches sol tp.o tr.o)))
            triples)
        sols)
    [ [] ] tps

let group keys aggs sols =
  let key sol = List.map (fun k -> List.assoc_opt k sol) keys in
  let groups =
    List.fold_left
      (fun acc sol ->
        let k = key sol in
        match List.assoc_opt k acc with
        | Some members -> (k, sol :: members) :: List.remove_assoc k acc
        | None -> (k, [ sol ]) :: acc)
      [] sols
  in
  let groups = if groups = [] && keys = [] then [ ([], []) ] else groups in
  List.map
    (fun (k, members) ->
      let base =
        List.fold_left2
          (fun acc v x -> match x with Some x -> add v x acc | None -> acc)
          [] keys k
      in
      List.fold_left
        (fun acc (out, agg) ->
          let n =
            match agg with
            | A.Count_all -> List.length members
            | A.Count_var v -> List.length (List.filter (List.mem_assoc v) members)
            | A.Count_distinct v ->
                List.length (List.sort_uniq compare (List.filter_map (List.assoc_opt v) members))
          in
          add out (B.Int n) acc)
        base aggs)
    groups

let rec eval dict model (q : A.t) : solution list =
  let sub = eval dict model in
  match q with
  | A.Bgp tps -> bgp dict model tps
  | A.Join (a, b) ->
      let right = sub b in
      List.concat_map
        (fun l -> List.filter_map (fun r -> if compatible l r then Some (merge l r) else None) right)
        (sub a)
  | A.Left_join (a, b) ->
      let right = sub b in
      List.concat_map
        (fun l ->
          match List.filter (compatible l) right with
          | [] -> [ l ]
          | matched -> List.map (merge l) matched)
        (sub a)
  | A.Union (a, b) -> sub a @ sub b
  | A.Values (vars, rows) ->
      List.filter_map
        (fun row ->
          if List.length row <> List.length vars then None
          else
            List.fold_left2
              (fun acc v cell ->
                match (acc, cell) with
                | None, _ -> None
                | acc, None -> acc
                | Some sol, Some t -> (
                    match Dict.Term_dict.find_term dict t with
                    | Some id -> Some (add v (B.Id id) sol)
                    | None -> None))
              (Some []) vars row)
        rows
  | A.Filter (e, q) -> List.filter (fun sol -> passes dict sol e) (sub q)
  | A.Distinct q ->
      List.rev
        (List.fold_left (fun seen sol -> if List.mem sol seen then seen else sol :: seen) [] (sub q))
  | A.Project (vars, q) -> List.map (List.filter (fun (v, _) -> List.mem v vars)) (sub q)
  | A.Extend_group (keys, aggs, q) -> group keys aggs (sub q)
  | A.Order_by (orders, q) -> List.stable_sort (compare_by dict orders) (sub q)
  | A.Slice (offset, limit, q) ->
      let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t in
      let rec take n l = if n <= 0 then [] else match l with [] -> [] | x :: t -> x :: take (n - 1) t in
      let l = drop (Option.value offset ~default:0) (sub q) in
      match limit with None -> l | Some n -> take n l
