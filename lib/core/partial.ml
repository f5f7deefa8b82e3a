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

(* The families led by [leads], in order, around [fill lead level]:
   the lead's fill with the sibling header [level], returned with the
   function that builds its twin.  Each kept index adopts the header level of an
   already built one with the same first position, as a Hexastore's
   siblings do. *)
let build kept leads fill =
  let built = ref [] in
  let sibling ord =
    let first o = List.hd (Ordering.positions o) in
    Option.map snd (List.find_opt (fun (o, _) -> first o = first ord) !built)
  in
  let keep ord idx =
    built := (ord, idx) :: !built;
    idx
  in
  List.map
    (fun lead ->
      let index, twin = fill lead (sibling lead) in
      let index = keep lead index and tw = Ordering.twin lead in
      let twin = if Ordering.Set.mem tw kept then Some (keep tw (twin ?level:(sibling tw) ())) else None in
      { lead; index; twin })
    leads

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
  let leads =
    List.filter
      (fun ord -> not (Ordering.Set.mem (Ordering.twin ord) kept && Ordering.compare (Ordering.twin ord) ord < 0))
      (Ordering.Set.elements kept)
  in
  let families =
    build kept leads (fun _ level -> Index.of_sorted_columns ?level ~firsts:[||] ~seconds:[||] ~thirds:[||] ())
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

(* Each family is static (Compressed Vertical Partitioning): a write
   rebuilds it with one merge and one fill in its lead ordering, with
   [add] absent and [remove] present, both sorted on (s, p, o). *)
let rebuild t ~add ~remove =
  if Array.length add > 0 || Array.length remove > 0 then begin
    t.families <-
      build t.kept
        (List.map (fun f -> f.lead) t.families)
        (fun lead level -> Index.refill ?level (List.assoc lead t.indices) lead ~add ~remove);
    t.indices <- indices_of t.families;
    t.size <- t.size + Array.length add - Array.length remove
  end

(* The distinct triples of [triples], sorted on (s, p, o), that the
   store holds ([keep]) or lacks. *)
let select t keep triples =
  let a = Ordering.sort_distinct Spo triples in
  Array.of_list (List.filter (fun tr -> mem_ids t tr = keep) (Array.to_list a))

let add_bulk_ids t triples =
  let fresh = select t false triples in
  rebuild t ~add:fresh ~remove:[||];
  Array.length fresh

let add_ids t tr = add_bulk_ids t [| tr |] = 1

let remove_ids t tr =
  let gone = select t true [| tr |] in
  rebuild t ~add:[||] ~remove:gone;
  Array.length gone = 1

let index t ord = List.assoc_opt ord t.indices

(* --- lookup ------------------------------------------------------------ *)

let pattern_role (pat : Pattern.t) = function
  | Rs -> pat.s
  | Rp -> pat.p
  | Ro -> pat.o

(* How useful an ordering is for a pattern: length of its bound prefix;
   among orderings whose first position is free, one whose second is
   bound (a probe per header instead of a walk of every list); then a
   tie-break bonus for the shape's native ordering. *)
let score pat ord =
  let r1, r2, r3 = roles ord in
  let bound r = pattern_role pat r <> None in
  let prefix =
    if not (bound r1) then 0
    else if not (bound r2) then 1
    else if not (bound r3) then 2
    else 3
  in
  (4 * prefix)
  + (if bound r2 then 2 else 0)
  + if Ordering.equal ord (Ordering.for_shape (Pattern.shape pat)) then 1 else 0

let best_ordering t pat =
  List.fold_left
    (fun best (ord, idx) ->
      match best with
      | Some (bord, _) when score pat bord >= score pat ord -> best
      | _ -> Some (ord, idx))
    None t.indices
  |> Option.get

let serving_ordering t pat = fst (best_ordering t pat)

let is_native t shape =
  Ordering.Set.mem (Ordering.for_shape shape) t.kept
  ||
  (* Membership and Sp also count as native through the twin (shared
     family lists answer them identically). *)
  match shape with
  | Pattern.All | Pattern.Sp -> Ordering.Set.mem (Ordering.twin (Ordering.for_shape shape)) t.kept
  | _ -> false

(* The ordering [best_ordering] picks, walked in its order: a bound
   first position is one probe, a bound second one a probe per header,
   and a bound third position filters. *)
let iter t (pat : Pattern.t) f =
  let ord, idx = best_ordering t pat in
  let r1, r2, r3 = roles ord in
  let v2 = pattern_role pat r2 and v3 = pattern_role pat r3 in
  let emit = Ordering.emit ord in
  (* The entries [[lo, hi)] under header [x1]. *)
  let entries x1 lo hi =
    match v3 with
    | None -> ignore (Index.iter_entries idx ~lo ~hi (fun x2 x3 -> emit f x1 x2 x3))
    | Some x3 ->
        for k = lo to hi - 1 do
          if Sorted_ivec.mem (Index.run idx k) x3 then emit f x1 (Index.key idx k) x3
        done
  in
  let header x1 =
    match v2 with
    | Some x2 ->
        let k = Index.entry idx x1 x2 in
        if k >= 0 then entries x1 k (k + 1)
    | None ->
        let r = Index.rank idx x1 in
        if r >= 0 then entries x1 (Index.entry_off idx r) (Index.entry_off idx (r + 1))
  in
  match pattern_role pat r1 with
  | Some x1 -> header x1
  | None -> Sorted_ivec.iter header (Index.headers_view idx)

let count t pat =
  (* Exact shortcuts when the leading two positions are bound in a kept
     ordering; otherwise count the stream. *)
  let ord, idx = best_ordering t pat in
  let r1, r2, r3 = roles ord in
  let v1 = pattern_role pat r1 and v2 = pattern_role pat r2 and v3 = pattern_role pat r3 in
  match (v1, v2, v3) with
  | Some x1, Some x2, None -> Index.list_length idx x1 x2
  | Some x1, None, None -> Index.header_triples idx x1
  | None, None, None -> t.size
  | _ ->
      let n = ref 0 in
      iter t pat (fun _ _ _ -> incr n);
      !n

let memory_words t = List.fold_left (fun acc (_, idx) -> acc + Index.memory_words idx) 0 t.indices

let check_invariant t =
  List.iter
    (fun (ord, idx) ->
      Index.check_invariant idx;
      assert (Index.total idx = t.size);
      (* Siblings read one header level. *)
      List.iter
        (fun (ord', idx') ->
          if List.hd (Ordering.positions ord) = List.hd (Ordering.positions ord') then
            assert (Index.shares_level idx idx'))
        t.indices)
    t.indices
