open Vectors

type role =
  | Rs
  | Rp
  | Ro

let roles = function
  | Ordering.Spo -> (Rs, Rp, Ro)
  | Ordering.Sop -> (Rs, Ro, Rp)
  | Ordering.Pso -> (Rp, Rs, Ro)
  | Ordering.Pos -> (Rp, Ro, Rs)
  | Ordering.Osp -> (Ro, Rs, Rp)
  | Ordering.Ops -> (Ro, Rp, Rs)

(* A materialised terminal-list family: the kept ordering that leads
   it owns the lists, and its twin, when kept too, shares them. *)
type family = {
  lead : Ordering.t;
  index : Index.t;
  twin : Index.t option;
}

type t = {
  dict : Dict.Term_dict.t;
  kept : Ordering.Set.t;
  mutable families : family list;
  mutable indices : (Ordering.t * Index.t) list;
  mutable size : int;
}

(* A family around its lead's fill, with the twin built when the store
   keeps it. *)
let family kept lead (index, twin) =
  { lead; index; twin = (if Ordering.Set.mem (Ordering.twin lead) kept then Some (Lazy.force twin) else None) }

let indices_of families =
  List.sort
    (fun (a, _) (b, _) -> Ordering.compare a b)
    (List.concat_map
       (fun f ->
         (f.lead, f.index) :: Option.fold ~none:[] ~some:(fun tw -> [ (Ordering.twin f.lead, tw) ]) f.twin)
       families)

let create ?dict ~orderings () =
  if orderings = [] then invalid_arg "Partial.create: at least one ordering required";
  let dict = match dict with Some d -> d | None -> Dict.Term_dict.create () in
  let kept = Ordering.Set.of_list orderings in
  (* Of two kept twins, the smaller one leads the family. *)
  let families =
    List.filter_map
      (fun ord ->
        let twin = Ordering.twin ord in
        if Ordering.Set.mem twin kept && Ordering.compare twin ord < 0 then None
        else Some (family kept ord (Index.empty ())))
      (Ordering.Set.elements kept)
  in
  { dict; kept; families; indices = indices_of families; size = 0 }

let orderings t = t.kept
let indices t = t.indices
let dict t = t.dict
let size t = t.size

let get_role (tr : Dict.Term_dict.id_triple) = function
  | Rs -> tr.s
  | Rp -> tr.p
  | Ro -> tr.o

(* Membership goes through the first family: every family's lists
   characterise the triple set completely. *)
let mem_ids t tr =
  let f = List.hd t.families in
  let r1, r2, r3 = roles f.lead in
  match Index.find_list f.index (get_role tr r1) (get_role tr r2) with
  | None -> false
  | Some l -> Sorted_ivec.mem l (get_role tr r3)

(* One merge and one fill per family, in its lead ordering. *)
let add_bulk_ids t triples =
  let fresh = Ordering.sort_distinct Spo triples in
  let fresh = Array.of_list (List.filter (fun tr -> not (mem_ids t tr)) (Array.to_list fresh)) in
  if Array.length fresh > 0 then begin
    t.families <-
      List.map (fun f -> family t.kept f.lead (Index.refill f.index f.lead ~add:fresh ~remove:[||])) t.families;
    t.indices <- indices_of t.families;
    t.size <- t.size + Array.length fresh
  end;
  Array.length fresh

let add_ids t tr = add_bulk_ids t [| tr |] = 1

(* --- lookup ------------------------------------------------------------ *)

let pattern_role (pat : Pattern.t) = function
  | Rs -> pat.s
  | Rp -> pat.p
  | Ro -> pat.o

(* How useful an ordering is for a pattern: length of its bound prefix,
   with a tie-break bonus for the shape's native ordering. *)
let score pat ord =
  let r1, r2, r3 = roles ord in
  let bound r = pattern_role pat r <> None in
  let prefix =
    if not (bound r1) then 0
    else if not (bound r2) then 1
    else if not (bound r3) then 2
    else 3
  in
  (2 * prefix) + if Ordering.equal ord (Ordering.for_shape (Pattern.shape pat)) then 1 else 0

let best_ordering t pat =
  List.fold_left
    (fun best (ord, idx) ->
      match best with
      | Some (bord, _) when score pat bord >= score pat ord -> best
      | _ -> Some (ord, idx))
    None t.indices
  |> Option.get

let is_native t shape =
  Ordering.Set.mem (Ordering.for_shape shape) t.kept
  ||
  (* Membership and Sp also count as native through the twin (shared
     family lists answer them identically). *)
  match shape with
  | Pattern.All | Pattern.Sp -> Ordering.Set.mem (Ordering.twin (Ordering.for_shape shape)) t.kept
  | _ -> false

(* The kept ordering with the longest bound prefix, walked in its
   order; a bound position past the prefix filters. *)
let iter t (pat : Pattern.t) f =
  let ord, idx = best_ordering t pat in
  let r1, r2, r3 = roles ord in
  let v2 = pattern_role pat r2 and v3 = pattern_role pat r3 in
  let emit = Ordering.emit ord f in
  let entry x1 x2 l =
    match v3 with
    | Some x3 -> if Sorted_ivec.mem l x3 then emit x1 x2 x3
    | None -> Sorted_ivec.iter (fun x3 -> emit x1 x2 x3) l
  in
  let header x1 =
    match (Index.find_vector idx x1, v2) with
    | None, _ -> ()
    | Some v, Some x2 -> Option.iter (entry x1 x2) (Pair_vector.find v x2)
    | Some v, None -> Pair_vector.iter (entry x1) v
  in
  match pattern_role pat r1 with
  | Some x1 -> header x1
  | None -> Sorted_ivec.iter header (Index.headers_view idx)

let lookup t pat =
  let acc = ref [] in
  iter t pat (fun s p o -> acc := ({ s; p; o } : Dict.Term_dict.id_triple) :: !acc);
  List.to_seq (List.rev !acc)

let count t pat =
  (* Exact shortcuts when the leading two positions are bound in a kept
     ordering; otherwise count the stream. *)
  let ord, idx = best_ordering t pat in
  let r1, r2, r3 = roles ord in
  let v1 = pattern_role pat r1 and v2 = pattern_role pat r2 and v3 = pattern_role pat r3 in
  match (v1, v2, v3) with
  | Some x1, Some x2, None -> (
      match Index.find_list idx x1 x2 with None -> 0 | Some l -> Sorted_ivec.length l)
  | Some x1, None, None -> (
      match Index.find_vector idx x1 with None -> 0 | Some v -> Pair_vector.total v)
  | None, None, None -> t.size
  | _ ->
      let n = ref 0 in
      iter t pat (fun _ _ _ -> incr n);
      !n

let memory_words t = List.fold_left (fun acc (_, idx) -> acc + Index.memory_words idx) 0 t.indices

let check_invariant t =
  List.iter
    (fun (_, idx) ->
      Index.check_invariant idx;
      assert (Index.total idx = t.size))
    t.indices
