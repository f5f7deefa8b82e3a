open Vectors

type kind =
  | Covp1
  | Covp2

(* The o-lists (p,s) are reached through [pso], the s-lists (p,o) of
   COVP2 through [pos]; each is the owner of its list family, and
   neither keeps a twin. *)
type t = {
  kind : kind;
  dict : Dict.Term_dict.t;
  mutable pso : Index.t;                          (* p -> subject vector -> o-list *)
  mutable pos : Index.t option;                   (* p -> object vector -> s-list; Covp2 *)
  mutable restriction : Sorted_ivec.t option;     (* the "28 properties" set *)
  mutable size : int;
}

let create ?dict kind =
  let dict = match dict with Some d -> d | None -> Dict.Term_dict.create () in
  {
    kind;
    dict;
    pso = fst (Index.empty ());
    pos = (match kind with Covp1 -> None | Covp2 -> Some (fst (Index.empty ())));
    restriction = None;
    size = 0;
  }

let kind t = t.kind
let dict t = t.dict
let size t = t.size

let mem_ids t ({ s; p; o } : Hexastore.id_triple) =
  match Index.find_list t.pso p s with
  | None -> false
  | Some l -> Sorted_ivec.mem l o

(* Each property table is static (Compressed Vertical Partitioning): a
   write rebuilds the kept families, each one merge and one fill, with
   [add] absent and [remove] present, both sorted on (s, p, o). *)
let rebuild t ~add ~remove =
  if Array.length add > 0 || Array.length remove > 0 then begin
    t.pso <- fst (Index.refill t.pso Pso ~add ~remove);
    t.pos <- Option.map (fun pos -> fst (Index.refill pos Pos ~add ~remove)) t.pos;
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

let add t triple = add_ids t (Dict.Term_dict.encode_triple t.dict triple)

let of_triples kind triples =
  let t = create kind in
  let ids = Array.of_list (List.map (Dict.Term_dict.encode_triple t.dict) triples) in
  ignore (add_bulk_ids t ids);
  t

let indices t =
  (Ordering.Pso, t.pso) :: (match t.pos with None -> [] | Some pos -> [ (Ordering.Pos, pos) ])

let properties t = Index.headers t.pso

let restrict_properties t ps =
  t.restriction <- Option.map (fun l -> Sorted_ivec.of_list l) ps

let scan_properties t =
  match t.restriction with Some r -> r | None -> properties t

let subject_vector t p = Index.find_vector t.pso p

let object_vector t p =
  match t.pos with None -> None | Some pos -> Index.find_vector pos p

let objects_of_sp t ~s ~p = Index.find_list t.pso p s

let subjects_of_po t ~p ~o =
  match t.pos with
  | Some pos -> Index.find_list pos p o
  | None -> (
      (* Covp1 has no object-sorted copy: scan the property's subject
         table, probing each subject's o-list — the expensive path. *)
      match Index.find_vector t.pso p with
      | None -> None
      | Some v ->
          let out = Sorted_ivec.create () in
          Pair_vector.iter (fun s ol -> if Sorted_ivec.mem ol o then ignore (Sorted_ivec.add out s)) v;
          if Sorted_ivec.is_empty out then None else Some out)

(* --- lookup ----------------------------------------------------------- *)

(* Property-bound shapes are index lookups; property-unbound ones walk
   the (restricted) property tables in property order. *)
let iter t (pat : Pattern.t) f =
  let list l g = match l with None -> () | Some l -> Sorted_ivec.iter g l in
  let table p g = match Index.find_vector t.pso p with None -> () | Some v -> Pair_vector.iter g v in
  let tables g = Sorted_ivec.iter g (scan_properties t) in
  match (Pattern.shape pat, pat.s, pat.p, pat.o) with
  | Pattern.All, Some s, Some p, Some o -> if mem_ids t { s; p; o } then f s p o
  | Pattern.Sp, Some s, Some p, _ -> list (objects_of_sp t ~s ~p) (fun o -> f s p o)
  | Pattern.P, _, Some p, _ -> table p (fun s ol -> Sorted_ivec.iter (fun o -> f s p o) ol)
  | Pattern.Po, _, Some p, Some o -> list (subjects_of_po t ~p ~o) (fun s -> f s p o)
  | Pattern.S, Some s, _, _ -> tables (fun p -> list (objects_of_sp t ~s ~p) (fun o -> f s p o))
  | Pattern.So, Some s, _, Some o ->
      tables (fun p ->
          match objects_of_sp t ~s ~p with
          | Some ol when Sorted_ivec.mem ol o -> f s p o
          | _ -> ())
  | Pattern.O, _, _, Some o -> (
      match t.pos with
      | Some pos -> tables (fun p -> list (Index.find_list pos p o) (fun s -> f s p o))
      | None -> tables (fun p -> table p (fun s ol -> if Sorted_ivec.mem ol o then f s p o)))
  | _ -> tables (fun p -> table p (fun s ol -> Sorted_ivec.iter (fun o -> f s p o) ol))

let lookup t pat =
  let acc = ref [] in
  iter t pat (fun s p o -> acc := ({ s; p; o } : Hexastore.id_triple) :: !acc);
  List.to_seq (List.rev !acc)

let count t pat =
  match Pattern.shape pat with
  | Pattern.All -> if mem_ids t { s = Option.get pat.s; p = Option.get pat.p; o = Option.get pat.o } then 1 else 0
  | Pattern.Sp -> (
      match objects_of_sp t ~s:(Option.get pat.s) ~p:(Option.get pat.p) with
      | None -> 0
      | Some l -> Sorted_ivec.length l)
  | Pattern.P -> (
      match Index.find_vector t.pso (Option.get pat.p) with
      | None -> 0
      | Some v -> Pair_vector.total v)
  | Pattern.Po -> (
      match subjects_of_po t ~p:(Option.get pat.p) ~o:(Option.get pat.o) with
      | None -> 0
      | Some l -> Sorted_ivec.length l)
  | Pattern.S | Pattern.So | Pattern.O ->
      let n = ref 0 in
      iter t pat (fun _ _ _ -> incr n);
      !n
  | Pattern.None_bound -> t.size

let memory_words t = List.fold_left (fun acc (_, idx) -> acc + Index.memory_words idx) 0 (indices t)

let check_invariant t =
  Index.check_invariant t.pso;
  assert (Index.total t.pso = t.size);
  match t.pos with
  | None -> ()
  | Some pos ->
      Index.check_invariant pos;
      assert (Index.total pos = t.size)
