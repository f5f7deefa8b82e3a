open Vectors

type t =
  | Pred of string
  | Inv of t
  | Seq of t * t
  | Alt of t * t
  | Plus of t
  | Star of t
  | Opt of t

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

(* --- parser ----------------------------------------------------------- *)

type token =
  | T_iri of string
  | T_slash
  | T_pipe
  | T_caret
  | T_plus
  | T_star
  | T_quest
  | T_lparen
  | T_rparen

(* Evaluation builds each property's [Rdf.Term.iri]; an IRI it would
   reject is a syntax error here, not an exception there. *)
let checked iri =
  match Rdf.Term.iri iri with
  | _ -> iri
  | exception Invalid_argument m -> fail "%s" m

let tokenize ns text =
  let n = String.length text in
  let toks = ref [] in
  let i = ref 0 in
  let is_pname_char c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' | '#' -> true
    | _ -> false
  in
  while !i < n do
    (match text.[!i] with
    | ' ' | '\t' | '\n' | '\r' -> incr i
    | '/' -> toks := T_slash :: !toks; incr i
    | '|' -> toks := T_pipe :: !toks; incr i
    | '^' -> toks := T_caret :: !toks; incr i
    | '+' -> toks := T_plus :: !toks; incr i
    | '*' -> toks := T_star :: !toks; incr i
    | '?' -> toks := T_quest :: !toks; incr i
    | '(' -> toks := T_lparen :: !toks; incr i
    | ')' -> toks := T_rparen :: !toks; incr i
    | '<' ->
        let j = ref (!i + 1) in
        while !j < n && text.[!j] <> '>' do
          incr j
        done;
        if !j >= n then fail "unterminated IRI";
        toks := T_iri (checked (String.sub text (!i + 1) (!j - !i - 1))) :: !toks;
        i := !j + 1
    | c when is_pname_char c ->
        let start = !i in
        let j = ref !i in
        while !j < n && is_pname_char text.[!j] do
          incr j
        done;
        let word = String.sub text start (!j - start) in
        if not (String.contains word ':') then fail "bare word %S (prefixed name needs a colon)" word;
        let iri =
          match Rdf.Namespace.expand ns word with
          | iri -> iri
          | exception Not_found -> fail "unbound prefix in %S" word
          | exception Invalid_argument _ -> fail "malformed prefixed name %S" word
        in
        toks := T_iri (checked iri) :: !toks;
        i := !j
    | c -> fail "unexpected character %C" c)
  done;
  List.rev !toks

(* Recursive descent: alt > seq > unary(postfix) > atom. *)
let parse ?namespaces text =
  let ns = match namespaces with Some t -> t | None -> Rdf.Namespace.default () in
  let toks = ref (tokenize ns text) in
  let peek () = match !toks with [] -> None | t :: _ -> Some t in
  let advance () = match !toks with [] -> fail "unexpected end of path" | _ :: r -> toks := r in
  let rec alt () =
    let left = seq () in
    match peek () with
    | Some T_pipe ->
        advance ();
        Alt (left, alt ())
    | _ -> left
  and seq () =
    let left = postfix () in
    match peek () with
    | Some T_slash ->
        advance ();
        Seq (left, seq ())
    | _ -> left
  and postfix () =
    let base = atom () in
    let rec loop acc =
      match peek () with
      | Some T_plus ->
          advance ();
          loop (Plus acc)
      | Some T_star ->
          advance ();
          loop (Star acc)
      | Some T_quest ->
          advance ();
          loop (Opt acc)
      | _ -> acc
    in
    loop base
  and atom () =
    match peek () with
    | Some (T_iri iri) ->
        advance ();
        Pred iri
    | Some T_caret ->
        advance ();
        Inv (atom_with_postfix ())
    | Some T_lparen ->
        advance ();
        let inner = alt () in
        (match peek () with
        | Some T_rparen -> advance ()
        | _ -> fail "expected ')'");
        inner
    | Some _ -> fail "unexpected token in path"
    | None -> fail "empty path"
  and atom_with_postfix () =
    (* ^p+ parses as ^(p+) for convenience. *)
    let base = atom () in
    let rec loop acc =
      match peek () with
      | Some T_plus -> advance (); loop (Plus acc)
      | Some T_star -> advance (); loop (Star acc)
      | Some T_quest -> advance (); loop (Opt acc)
      | _ -> acc
    in
    loop base
  in
  let result = alt () in
  if !toks <> [] then fail "trailing tokens after path";
  result

(* --- evaluation --------------------------------------------------------- *)

let pid h iri = Compile.term_id (Hexa.Hexastore.dict h) (Rdf.Term.iri iri)

(* One step over property [p] for a sorted frontier: [next p node]
   is the nodes one edge away.  The reached nodes are collected, then
   sorted and de-duplicated once, not inserted one by one. *)
let step_over h p frontier next =
  match pid h p with
  | None -> Sorted_ivec.create ()
  | Some p ->
      let out = Dynarray_int.create () in
      Sorted_ivec.iter
        (fun node -> Option.iter (Sorted_ivec.iter (Dynarray_int.push out)) (next p node))
        frontier;
      Dynarray_int.sort_uniq out;
      Sorted_ivec.of_sorted_array (Dynarray_int.to_array out)

let step_pred h p frontier = step_over h p frontier (fun p s -> Hexa.Hexastore.objects_of_sp h ~s ~p)

let step_pred_inv h p frontier =
  step_over h p frontier (fun p o -> Hexa.Hexastore.subjects_of_po h ~p ~o)

(* Reachable set of a frontier through a path; [inverted] flips edge
   direction (for eval_into). *)
let rec step ~inverted h path frontier =
  if Sorted_ivec.is_empty frontier then frontier
  else
    match path with
    | Pred p -> if inverted then step_pred_inv h p frontier else step_pred h p frontier
    | Inv inner -> step ~inverted:(not inverted) h inner frontier
    | Seq (a, b) ->
        if inverted then step ~inverted h a (step ~inverted h b frontier)
        else step ~inverted h b (step ~inverted h a frontier)
    | Alt (a, b) -> Merge.union (step ~inverted h a frontier) (step ~inverted h b frontier)
    | Opt inner -> Merge.union frontier (step ~inverted h inner frontier)
    | Star inner -> closure ~inverted h inner frontier
    | Plus inner ->
        let first = step ~inverted h inner frontier in
        closure ~inverted h inner first

(* BFS to fixpoint: reached ∪ everything [inner]-reachable from it. *)
and closure ~inverted h inner start =
  let reached = ref (Sorted_ivec.copy start) in
  let frontier = ref start in
  while not (Sorted_ivec.is_empty !frontier) do
    let next = step ~inverted h inner !frontier in
    let fresh = Merge.diff next !reached in
    reached := Merge.union !reached fresh;
    frontier := fresh
  done;
  !reached

let eval_from h ~start path = step ~inverted:false h path (Sorted_ivec.singleton start)

let eval_into h path ~target = step ~inverted:true h path (Sorted_ivec.singleton target)

(* ASK-style point check over an already-materialised closure: the probe
   is the algorithm here, not a join.  lint: allow query-probe *)
let holds h path ~s ~o = Sorted_ivec.mem (eval_from h ~start:s path) o

(* Source candidates: nodes that can possibly start the path (subjects of
   its leftmost predicates; every node for closure/optional paths, since
   zero-length matches start anywhere). *)
let rec sources h = function
  | Pred p -> (
      match pid h p with
      | None -> Sorted_ivec.create ()
      | Some p -> Hexa.Index.key_slice (Hexa.Hexastore.pso h) p)
  | Inv inner -> targets h inner
  | Seq (a, _) -> sources h a
  | Alt (a, b) -> Merge.union (sources h a) (sources h b)
  | Plus inner -> sources h inner
  | Star _ | Opt _ ->
      (* Zero-length arcs start at any node in the graph. *)
      Merge.union (Hexa.Hexastore.subjects h) (Hexa.Hexastore.objects h)

and targets h = function
  | Pred p -> (
      match pid h p with
      | None -> Sorted_ivec.create ()
      | Some p -> Hexa.Index.key_slice (Hexa.Hexastore.pos h) p)
  | Inv inner -> sources h inner
  | Seq (_, b) -> targets h b
  | Alt (a, b) -> Merge.union (targets h a) (targets h b)
  | Plus inner -> targets h inner
  | Star _ | Opt _ -> Merge.union (Hexa.Hexastore.subjects h) (Hexa.Hexastore.objects h)

let pairs h path =
  let out = ref [] in
  Sorted_ivec.iter
    (fun s ->
      Sorted_ivec.iter (fun o -> out := (s, o) :: !out) (eval_from h ~start:s path))
    (sources h path);
  List.sort_uniq compare !out

let rec pp ppf = function
  | Pred iri -> Format.fprintf ppf "<%s>" iri
  | Inv p -> Format.fprintf ppf "^%a" pp_atom p
  | Seq (a, b) -> Format.fprintf ppf "%a/%a" pp_tight a pp_tight b
  | Alt (a, b) -> Format.fprintf ppf "%a|%a" pp a pp b
  | Plus p -> Format.fprintf ppf "%a+" pp_atom p
  | Star p -> Format.fprintf ppf "%a*" pp_atom p
  | Opt p -> Format.fprintf ppf "%a?" pp_atom p

and pp_tight ppf p =
  match p with Alt _ -> Format.fprintf ppf "(%a)" pp p | _ -> pp ppf p

and pp_atom ppf p =
  match p with
  | Pred _ | Inv _ -> pp ppf p
  | _ -> Format.fprintf ppf "(%a)" pp p
