type value =
  | Id of int
  | Int of int

let unbound = -1

let encode = function
  | Id id -> id
  | Int n when n >= 0 -> -2 - n
  | Int n -> invalid_arg (Printf.sprintf "Binding.encode: negative aggregate %d" n)

let decode x = if x >= 0 then Some (Id x) else if x = unbound then None else Some (Int (-2 - x))

type t = {
  names : string array;
  cells : int array;
}

let of_row names cells = { names; cells }
let schema b = b.names
let row b = b.cells
let empty = { names = [||]; cells = [||] }

let slot b v =
  let rec find i = if i = Array.length b.names then -1 else if String.equal b.names.(i) v then i else find (i + 1) in
  find 0

let get b v =
  match slot b v with
  | -1 -> None
  | i -> decode b.cells.(i)

let mem b v = get b v <> None

let bind b v x =
  match slot b v with
  | -1 -> { names = Array.append b.names [| v |]; cells = Array.append b.cells [| encode x |] }
  | i -> (
      match decode b.cells.(i) with
      | Some existing when existing <> x ->
          invalid_arg (Printf.sprintf "Binding.bind: %s already bound" v)
      | Some _ -> b
      | None ->
          let cells = Array.copy b.cells in
          cells.(i) <- encode x;
          { b with cells })

let to_list b =
  let bound = ref [] in
  Array.iteri
    (fun i v -> match decode b.cells.(i) with Some x -> bound := (v, x) :: !bound | None -> ())
    b.names;
  List.sort (fun (v, _) (w, _) -> String.compare v w) !bound

let vars b = List.map fst (to_list b)

let compatible b v x = match get b v with None -> true | Some y -> y = x

let equal a b = to_list a = to_list b

let compare a b = Stdlib.compare (to_list a) (to_list b)

(* A cell handed out as a term, parsed from its spelling: the one
   place the query layer parses, for CONSTRUCT's output triples. *)
let term dict = function
  | Id id -> (
      (* lint: allow query-resolve *)
      try Some (Dict.Term_dict.decode_term dict id) with Invalid_argument _ -> None)
  | Int n -> Some (Rdf.Term.int_literal n)

let value_to_string dict = function
  | Int n -> string_of_int n
  | Id id when id < Dict.Term_dict.size dict -> Dict.Term_dict.spelling dict id
  | Id id -> Printf.sprintf "?id:%d" id

let pp dict ppf b =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (v, x) -> Format.fprintf ppf "%s=%s" v (value_to_string dict x)))
    (to_list b)
