open Hexa
module SV = Vectors.Sorted_ivec
module Merge = Vectors.Merge

type ids = {
  course10 : int;
  university0 : int;
  assoc_prof10 : int;
  type_p : int;
  university_class : int;
  teacher_of : int;
  degree_props : int list;
}

let resolve_ids dict =
  let iri s = Dict.Term_dict.find_term dict (Rdf.Term.iri s) in
  match
    ( iri Lubm.course10, iri (Lubm.university 0), iri Lubm.associate_professor10,
      iri Rdf.Namespace.rdf_type, iri (Lubm.ub "University"), iri (Lubm.ub "teacherOf"),
      iri (Lubm.ub "undergraduateDegreeFrom"), iri (Lubm.ub "mastersDegreeFrom"),
      iri (Lubm.ub "doctoralDegreeFrom") )
  with
  | ( Some course10, Some university0, Some assoc_prof10, Some type_p, Some university_class,
      Some teacher_of, Some ug, Some ms, Some phd ) ->
      Some
        {
          course10;
          university0;
          assoc_prof10;
          type_p;
          university_class;
          teacher_of;
          degree_props = [ ug; ms; phd ];
        }
  | _ -> None

let empty_sv = SV.create ~capacity:1 ()

(* --- object-bound retrieval: who relates to [o]? ----------------------- *)

(* (subject, property) pairs for every triple with object [o], using each
   competitor's native access path. *)
let related_to store o =
  match store with
  | Stores.Hexa h ->
      (* Direct osp lookup: subject vector with property lists. *)
      let out = ref [] in
      ignore (Index.iter_header (Hexastore.osp h) o (fun s p -> out := (s, p) :: !out));
      List.sort compare !out
  | Stores.Covp c ->
      let out = ref [] in
      SV.iter
        (fun p ->
          match Covp.object_vector c p with
          | Some v -> (
              (* COVP2: one pos probe per property table. *)
              match Pair_vector.find v o with
              | None -> ()
              | Some sl -> SV.iter (fun s -> out := (s, p) :: !out) sl)
          | None -> (
              (* COVP1: scan the property's subject table, probing each
                 subject's o-list. *)
              match Covp.subject_vector c p with
              | None -> ()
              | Some v ->
                  Pair_vector.iter
                    (fun s ol -> if SV.mem ol o then out := (s, p) :: !out)
                    v))
        (Covp.properties c);
      List.sort compare !out

let lq1 store ids = related_to store ids.course10

let lq2 store ids = related_to store ids.university0

(* --- LQ3: everything about AssociateProfessor10 ------------------------ *)

let lq3 store ids =
  let x = ids.assoc_prof10 in
  let outgoing =
    match store with
    | Stores.Hexa h ->
        (* One spo lookup. *)
        let out = ref [] in
        ignore (Index.iter_header (Hexastore.spo h) x (fun p o -> out := (p, o) :: !out));
        List.sort compare !out
    | Stores.Covp c ->
        (* Both COVP variants: probe every property table by subject. *)
        let out = ref [] in
        SV.iter
          (fun p ->
            match Covp.objects_of_sp c ~s:x ~p with
            | None -> ()
            | Some ol -> SV.iter (fun o -> out := (p, o) :: !out) ol)
          (Covp.properties c);
        List.sort compare !out
  in
  let incoming = related_to store x in
  (outgoing, incoming)

(* --- LQ4: people in AP10's courses, grouped by course ------------------ *)

let objects_sp store ~s ~p =
  match store with
  | Stores.Hexa h -> (
      match Hexastore.objects_of_sp h ~s ~p with Some l -> l | None -> empty_sv)
  | Stores.Covp c -> (
      match Covp.objects_of_sp c ~s ~p with Some l -> l | None -> empty_sv)

let lq4 store ids =
  let courses = objects_sp store ~s:ids.assoc_prof10 ~p:ids.teacher_of in
  SV.fold
    (fun acc course ->
      let people =
        List.sort_uniq compare (List.map fst (related_to store course))
      in
      (course, people) :: acc)
    [] courses
  |> List.rev

(* --- LQ5: degree-holders from AP10's universities ---------------------- *)

let lq5 store ids =
  (* Step 1: the objects AP10 is related to. *)
  let t =
    match store with
    | Stores.Hexa h -> (
        (* Directly the object vector of AP10 in sop indexing. *)
        match Index.find_vector (Hexastore.sop h) ids.assoc_prof10 with
        | None -> empty_sv
        | Some v -> Pair_vector.keys v)
    | Stores.Covp c ->
        (* Scan all pso property tables for AP10's objects. *)
        let objs = ref [] in
        SV.iter
          (fun p ->
            match Covp.objects_of_sp c ~s:ids.assoc_prof10 ~p with
            | None -> ()
            | Some ol -> SV.iter (fun o -> objs := o :: !objs) ol)
          (Covp.properties c);
        SV.of_list !objs
  in
  (* Step 2: refine t to universities. *)
  let universities =
    match store with
    | Stores.Hexa h -> (
        match Hexastore.subjects_of_po h ~p:ids.type_p ~o:ids.university_class with
        | None -> empty_sv
        | Some unis -> Merge.intersect t unis)
    | Stores.Covp c -> (
        match Covp.kind c with
        | Covp.Covp2 -> (
            match Covp.subjects_of_po c ~p:ids.type_p ~o:ids.university_class with
            | None -> empty_sv
            | Some unis -> Merge.intersect t unis)
        | Covp.Covp1 -> (
            (* Join t with the Type subject vector, filtering on the
               University object. *)
            match Covp.subject_vector c ids.type_p with
            | None -> empty_sv
            | Some v ->
                let out = SV.create () in
                let nv = Pair_vector.length v and nt = SV.length t in
                let i = ref 0 and j = ref 0 in
                while !i < nv && !j < nt do
                  let s = Pair_vector.key_at v !i and x = SV.get t !j in
                  if s = x then begin
                    if SV.mem (Pair_vector.payload_at v !i) ids.university_class then
                      ignore (SV.add out s);
                    incr i;
                    incr j
                  end
                  else if s < x then incr i
                  else incr j
                done;
                out))
  in
  (* Step 3: degree-holders per university. *)
  let subjects_po p o =
    match store with
    | Stores.Hexa h -> (
        match Hexastore.subjects_of_po h ~p ~o with Some l -> l | None -> empty_sv)
    | Stores.Covp c -> (
        match Covp.subjects_of_po c ~p ~o with Some l -> l | None -> empty_sv)
  in
  SV.fold
    (fun acc u ->
      let people =
        List.fold_left
          (fun acc p -> Merge.union acc (subjects_po p u))
          (SV.create ()) ids.degree_props
      in
      (u, SV.to_list people) :: acc)
    [] universities
  |> List.rev
