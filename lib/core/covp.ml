open Vectors

type kind =
  | Covp1
  | Covp2

type t = {
  kind : kind;
  dict : Dict.Term_dict.t;
  pso : Index.t;                                  (* p -> subject vector -> o-list *)
  o_lists : (int, Sorted_ivec.t) Hashtbl.t;       (* (p,s) -> objects *)
  pos : Index.t option;                           (* p -> object vector -> s-list; Covp2 *)
  s_lists : (int, Sorted_ivec.t) Hashtbl.t;       (* (p,o) -> subjects; Covp2 *)
  mutable restriction : Sorted_ivec.t option;     (* the "28 properties" set *)
  mutable size : int;
}

let create ?dict kind =
  let dict = match dict with Some d -> d | None -> Dict.Term_dict.create () in
  {
    kind;
    dict;
    pso = Index.create ();
    o_lists = Hashtbl.create 1024;
    pos = (match kind with Covp1 -> None | Covp2 -> Some (Index.create ()));
    s_lists = Hashtbl.create 1024;
    restriction = None;
    size = 0;
  }

let kind t = t.kind
let dict t = t.dict
let size t = t.size

let add_ids t ({ s; p; o } : Hexastore.id_triple) =
  let o_list = Index.get_or_create_list t.o_lists (Pair_key.make p s) in
  if not (Sorted_ivec.add o_list o) then false
  else begin
    Index.link t.pso ~first:p ~second:s o_list;
    (match t.pos with
    | None -> ()
    | Some pos ->
        let s_list = Index.get_or_create_list t.s_lists (Pair_key.make p o) in
        ignore (Sorted_ivec.add s_list s);
        Index.link pos ~first:p ~second:o s_list);
    t.size <- t.size + 1;
    true
  end

let mem_ids t ({ s; p; o } : Hexastore.id_triple) =
  match Hashtbl.find_opt t.o_lists (Pair_key.make p s) with
  | None -> false
  | Some l -> Sorted_ivec.mem l o

let remove_ids t ({ s; p; o } : Hexastore.id_triple) =
  let key_ps = Pair_key.make p s in
  match Hashtbl.find_opt t.o_lists key_ps with
  | None -> false
  | Some o_list ->
      if not (Sorted_ivec.remove o_list o) then false
      else begin
        let o_empty = Sorted_ivec.is_empty o_list in
        if o_empty then Hashtbl.remove t.o_lists key_ps;
        Index.unlink t.pso ~first:p ~second:s ~list_empty:o_empty;
        (match t.pos with
        | None -> ()
        | Some pos ->
            let key_po = Pair_key.make p o in
            (match Hashtbl.find_opt t.s_lists key_po with
            | None -> assert false
            | Some s_list ->
                ignore (Sorted_ivec.remove s_list s);
                let s_empty = Sorted_ivec.is_empty s_list in
                if s_empty then Hashtbl.remove t.s_lists key_po;
                Index.unlink pos ~first:p ~second:o ~list_empty:s_empty));
        t.size <- t.size - 1;
        true
      end

let add_bulk_ids t triples =
  let arr = Array.copy triples in
  Array.stable_sort (Ordering.compare_triples Pso) arr;
  let fresh = ref [] in
  let fresh_count = ref 0 in
  Array.iter
    (fun (tr : Hexastore.id_triple) ->
      let o_list = Index.get_or_create_list t.o_lists (Pair_key.make tr.p tr.s) in
      if Sorted_ivec.add o_list tr.o then begin
        Index.link_bulk t.pso ~first:tr.p ~second:tr.s o_list;
        fresh := tr :: !fresh;
        incr fresh_count
      end)
    arr;
  (match t.pos with
  | None -> ()
  | Some pos ->
      let fresh = Array.of_list !fresh in
      Array.stable_sort (Ordering.compare_triples Pos) fresh;
      Array.iter
        (fun (tr : Hexastore.id_triple) ->
          let s_list = Index.get_or_create_list t.s_lists (Pair_key.make tr.p tr.o) in
          ignore (Sorted_ivec.add s_list tr.s);
          Index.link_bulk pos ~first:tr.p ~second:tr.o s_list)
        fresh;
      Index.seal pos);
  Index.seal t.pso;
  t.size <- t.size + !fresh_count;
  !fresh_count

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

let objects_of_sp t ~s ~p = Hashtbl.find_opt t.o_lists (Pair_key.make p s)

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

let seq_of_list_opt = function None -> Seq.empty | Some l -> Sorted_ivec.to_seq l

(* Iterate the (restricted) property tables lazily. *)
let scan_tables t f =
  Seq.concat_map f (Sorted_ivec.to_seq (scan_properties t))

let lookup t (pat : Pattern.t) : Hexastore.id_triple Seq.t =
  match Pattern.shape pat with
  | Pattern.All ->
      let tr : Hexastore.id_triple =
        { s = Option.get pat.s; p = Option.get pat.p; o = Option.get pat.o }
      in
      if mem_ids t tr then Seq.return tr else Seq.empty
  | Pattern.Sp ->
      let s = Option.get pat.s and p = Option.get pat.p in
      Seq.map
        (fun o : Hexastore.id_triple -> { s; p; o })
        (seq_of_list_opt (objects_of_sp t ~s ~p))
  | Pattern.P ->
      let p = Option.get pat.p in
      (match Index.find_vector t.pso p with
      | None -> Seq.empty
      | Some v ->
          Seq.concat_map
            (fun (s, ol) ->
              Seq.map (fun o : Hexastore.id_triple -> { s; p; o }) (Sorted_ivec.to_seq ol))
            (Pair_vector.to_seq v))
  | Pattern.Po ->
      let p = Option.get pat.p and o = Option.get pat.o in
      Seq.map
        (fun s : Hexastore.id_triple -> { s; p; o })
        (seq_of_list_opt (subjects_of_po t ~p ~o))
  | Pattern.S ->
      (* Unbound property: consult every property table for this subject. *)
      let s = Option.get pat.s in
      scan_tables t (fun p ->
          Seq.map
            (fun o : Hexastore.id_triple -> { s; p; o })
            (seq_of_list_opt (objects_of_sp t ~s ~p)))
  | Pattern.So ->
      let s = Option.get pat.s and o = Option.get pat.o in
      scan_tables t (fun p ->
          match objects_of_sp t ~s ~p with
          | Some ol when Sorted_ivec.mem ol o -> Seq.return ({ s; p; o } : Hexastore.id_triple)
          | _ -> Seq.empty)
  | Pattern.O ->
      let o = Option.get pat.o in
      (match t.pos with
      | Some pos ->
          scan_tables t (fun p ->
              Seq.map
                (fun s : Hexastore.id_triple -> { s; p; o })
                (seq_of_list_opt (Index.find_list pos p o)))
      | None ->
          (* Covp1: full scan of each table, filtering on object. *)
          scan_tables t (fun p ->
              match Index.find_vector t.pso p with
              | None -> Seq.empty
              | Some v ->
                  Seq.filter_map
                    (fun (s, ol) ->
                      if Sorted_ivec.mem ol o then Some ({ s; p; o } : Hexastore.id_triple)
                      else None)
                    (Pair_vector.to_seq v)))
  | Pattern.None_bound ->
      scan_tables t (fun p ->
          match Index.find_vector t.pso p with
          | None -> Seq.empty
          | Some v ->
              Seq.concat_map
                (fun (s, ol) ->
                  Seq.map (fun o : Hexastore.id_triple -> { s; p; o }) (Sorted_ivec.to_seq ol))
                (Pair_vector.to_seq v))

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
  | Pattern.S | Pattern.So | Pattern.O -> Seq.length (lookup t pat)
  | Pattern.None_bound -> t.size

(* Covp1's [s_lists] stays empty but is allocated, so it counts too. *)
let memory_words t =
  Index.memory_words t.pso + Index.lists_memory_words t.o_lists
  + Index.lists_memory_words t.s_lists
  + match t.pos with None -> 0 | Some pos -> Index.memory_words pos

let check_invariant t =
  Index.check_invariant t.pso;
  assert (Index.total t.pso = t.size);
  match t.pos with
  | None -> ()
  | Some pos ->
      Index.check_invariant pos;
      assert (Index.total pos = t.size)
