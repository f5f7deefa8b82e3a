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

(* Terminal-list family of an ordering: which element its lists hold. *)
type family =
  | F_o   (* o-lists keyed (s,p): spo, pso *)
  | F_p   (* p-lists keyed (s,o): sop, osp *)
  | F_s   (* s-lists keyed (p,o): pos, ops *)

let family_of = function
  | Ordering.Spo | Ordering.Pso -> F_o
  | Ordering.Sop | Ordering.Osp -> F_p
  | Ordering.Pos | Ordering.Ops -> F_s

let family_key (tr : Dict.Term_dict.id_triple) = function
  | F_o -> Pair_key.make tr.s tr.p
  | F_p -> Pair_key.make tr.s tr.o
  | F_s -> Pair_key.make tr.p tr.o

let family_third (tr : Dict.Term_dict.id_triple) = function
  | F_o -> tr.o
  | F_p -> tr.p
  | F_s -> tr.s

type t = {
  dict : Dict.Term_dict.t;
  kept : Ordering.Set.t;
  indices : (Ordering.t * Index.t) list;
  families : (family * (int, Sorted_ivec.t) Hashtbl.t) list;
  mutable size : int;
}

let create ?dict ~orderings () =
  if orderings = [] then invalid_arg "Partial.create: at least one ordering required";
  let dict = match dict with Some d -> d | None -> Dict.Term_dict.create () in
  let kept = Ordering.Set.of_list orderings in
  let indices =
    List.map (fun ord -> (ord, Index.create ())) (Ordering.Set.elements kept)
  in
  let families =
    List.sort_uniq compare (List.map family_of (Ordering.Set.elements kept))
    |> List.map (fun f -> (f, Hashtbl.create 1024))
  in
  { dict; kept; indices; families; size = 0 }

let orderings t = t.kept
let indices t = t.indices
let dict t = t.dict
let size t = t.size

let get_role (tr : Dict.Term_dict.id_triple) = function
  | Rs -> tr.s
  | Rp -> tr.p
  | Ro -> tr.o

let assemble (r1, r2, r3) x1 x2 x3 : Dict.Term_dict.id_triple =
  let s = ref 0 and p = ref 0 and o = ref 0 in
  let set r x = match r with Rs -> s := x | Rp -> p := x | Ro -> o := x in
  set r1 x1;
  set r2 x2;
  set r3 x3;
  { s = !s; p = !p; o = !o }

(* Duplicate detection goes through the first materialised family: every
   family's lists characterise the triple set completely. *)
let primary t = List.hd t.families

let mem_ids t tr =
  let f, table = primary t in
  match Hashtbl.find_opt table (family_key tr f) with
  | None -> false
  | Some l -> Sorted_ivec.mem l (family_third tr f)

let link_ordering ~link t lists tr ord =
  let f = family_of ord in
  let l = List.assq f lists in
  let r1, r2, _ = roles ord in
  let idx = List.assoc ord t.indices in
  link idx ~first:(get_role tr r1) ~second:(get_role tr r2) l

let add_ids t tr =
  (* Insert into every materialised family; the primary add doubles as
     the duplicate check. *)
  let pf, ptable = primary t in
  let plist = Index.get_or_create_list ptable (family_key tr pf) in
  if not (Sorted_ivec.add plist (family_third tr pf)) then false
  else begin
    let lists =
      List.map
        (fun (f, table) ->
          if f = pf then (f, plist)
          else begin
            let l = Index.get_or_create_list table (family_key tr f) in
            ignore (Sorted_ivec.add l (family_third tr f));
            (f, l)
          end)
        t.families
    in
    List.iter (fun (ord, _) -> link_ordering ~link:Index.link t lists tr ord) t.indices;
    t.size <- t.size + 1;
    true
  end

(* The ordering whose sort order makes a family's list appends monotone. *)
let cmp_for_family = function
  | F_o -> Ordering.compare_triples Ordering.Spo
  | F_p -> Ordering.compare_triples Ordering.Sop
  | F_s -> Ordering.compare_triples Ordering.Pos

let add_bulk_ids t triples =
  (* One sorted pass per materialised family (monotone appends), plus the
     orderings of that family; the primary pass also deduplicates. *)
  let pf, _ = primary t in
  let arr = Array.copy triples in
  Array.stable_sort (cmp_for_family pf) arr;
  let fresh = ref [] in
  let fresh_count = ref 0 in
  let pass f table fresh_arr =
    Array.stable_sort (cmp_for_family f) fresh_arr;
    Array.iter
      (fun tr ->
        let l = Index.get_or_create_list table (family_key tr f) in
        ignore (Sorted_ivec.add l (family_third tr f));
        List.iter
          (fun (ord, _) ->
            if family_of ord = f then link_ordering ~link:Index.link_bulk t [ (f, l) ] tr ord)
          t.indices)
      fresh_arr
  in
  (* Primary pass with dedup. *)
  let _, ptable = primary t in
  Array.iter
    (fun tr ->
      let l = Index.get_or_create_list ptable (family_key tr pf) in
      if Sorted_ivec.add l (family_third tr pf) then begin
        List.iter
          (fun (ord, _) ->
            if family_of ord = pf then link_ordering ~link:Index.link_bulk t [ (pf, l) ] tr ord)
          t.indices;
        fresh := tr :: !fresh;
        incr fresh_count
      end)
    arr;
  let fresh = Array.of_list !fresh in
  List.iter (fun (f, table) -> if f <> pf then pass f table fresh) t.families;
  List.iter (fun (_, idx) -> Index.seal idx) t.indices;
  t.size <- t.size + !fresh_count;
  !fresh_count

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

let lookup t (pat : Pattern.t) : Dict.Term_dict.id_triple Seq.t =
  let ord, idx = best_ordering t pat in
  let ((r1, r2, r3) as rs) = roles ord in
  let v1 = pattern_role pat r1 and v2 = pattern_role pat r2 and v3 = pattern_role pat r3 in
  let expand_entry x1 x2 l =
    match v3 with
    | Some x3 ->
        if Sorted_ivec.mem l x3 then Seq.return (assemble rs x1 x2 x3) else Seq.empty
    | None -> Seq.map (fun x3 -> assemble rs x1 x2 x3) (Sorted_ivec.to_seq l)
  in
  let expand_vector x1 v =
    match v2 with
    | Some x2 -> (
        match Pair_vector.find v x2 with None -> Seq.empty | Some l -> expand_entry x1 x2 l)
    | None -> Seq.concat_map (fun (x2, l) -> expand_entry x1 x2 l) (Pair_vector.to_seq v)
  in
  match v1 with
  | Some x1 -> (
      match Index.find_vector idx x1 with None -> Seq.empty | Some v -> expand_vector x1 v)
  | None ->
      (* No bound position leads any kept ordering: filtered full scan. *)
      Seq.concat_map
        (fun x1 ->
          match Index.find_vector idx x1 with
          | None -> Seq.empty
          | Some v -> expand_vector x1 v)
        (Sorted_ivec.to_seq (Index.headers idx))

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
  | _ -> Seq.length (lookup t pat)

let memory_words t =
  (* Exact, matching [Hexastore.memory_words]: the bucket array plus a
     4-word bucket entry (Cons header, key, data, next) per list. *)
  let lists_memory table =
    let stats = Hashtbl.stats table in
    Hashtbl.fold
      (fun _ l acc -> acc + 4 + Sorted_ivec.memory_words l)
      table
      (stats.Hashtbl.num_buckets + 4)
  in
  List.fold_left (fun acc (_, idx) -> acc + Index.memory_words idx) 0 t.indices
  + List.fold_left (fun acc (_, table) -> acc + lists_memory table) 0 t.families

let check_invariant t =
  List.iter
    (fun (_, idx) ->
      Index.check_invariant idx;
      assert (Index.total idx = t.size))
    t.indices
