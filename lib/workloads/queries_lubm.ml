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

(* Sorted subjects matching (p, o): one pos list on the Hexastore and
   COVP2.  COVP1 has no pos, so [Partial.iter] scans the property's
   subject table, probing each subject's o-list — exactly the cost
   §5.2 prescribes. *)
let subjects_po store ~p ~o =
  let list = function Some l -> l | None -> empty_sv in
  match store with
  | Stores.Hexa h -> list (Hexastore.subjects_of_po h ~p ~o)
  | Stores.Partial c -> (
      match Partial.index c Ordering.Pos with
      | Some pos -> list (Index.find_list pos p o)
      | None ->
          let out = SV.create () in
          Partial.iter c (Pattern.make ~p ~o ()) (fun s _ _ -> ignore (SV.add out s));
          out)

(* --- object-bound retrieval: who relates to [o]? ----------------------- *)

(* (subject, property) pairs for every triple with object [o], using each
   competitor's native access path. *)
let related_to store o =
  let out = ref [] in
  (match store with
  | Stores.Hexa h ->
      (* Direct osp lookup: subject vector with property lists. *)
      ignore (Index.iter_header (Hexastore.osp h) o (fun s p -> out := (s, p) :: !out))
  | Stores.Partial c ->
      (* Every property table: COVP2 probes its pos table once per
         property; COVP1 scans each subject table, probing every
         subject's o-list. *)
      Partial.iter c (Pattern.make ~o ()) (fun s p _ -> out := (s, p) :: !out));
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
    | Stores.Partial c ->
        (* Both COVP variants: probe every property table by subject. *)
        let out = ref [] in
        Partial.iter c (Pattern.make ~s:x ()) (fun _ p o -> out := (p, o) :: !out);
        List.sort compare !out
  in
  let incoming = related_to store x in
  (outgoing, incoming)

(* --- LQ4: people in AP10's courses, grouped by course ------------------ *)

let objects_sp store ~s ~p =
  match store with
  | Stores.Hexa h -> (
      match Hexastore.objects_of_sp h ~s ~p with Some l -> l | None -> empty_sv)
  | Stores.Partial _ -> (
      match Index.find_list (Stores.pso store) p s with Some l -> l | None -> empty_sv)

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
    | Stores.Partial c ->
        (* Scan all pso property tables for AP10's objects. *)
        let objs = ref [] in
        Partial.iter c (Pattern.make ~s:ids.assoc_prof10 ()) (fun _ _ o -> objs := o :: !objs);
        SV.of_list !objs
  in
  (* Step 2: refine t to universities. *)
  let universities =
    match store with
    | Stores.Partial c when Option.is_none (Partial.index c Ordering.Pos) -> (
        match Index.find_vector (Stores.pso store) ids.type_p with
        | None -> empty_sv
        | Some v ->
            (* COVP1: join t with the Type subject vector, filtering on the
               University object. *)
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
            out)
    | _ -> Merge.intersect t (subjects_po store ~p:ids.type_p ~o:ids.university_class)
  in
  (* Step 3: degree-holders per university. *)
  SV.fold
    (fun acc u ->
      let people =
        List.fold_left
          (fun acc p -> Merge.union acc (subjects_po store ~p ~o:u))
          (SV.create ()) ids.degree_props
      in
      (u, SV.to_list people) :: acc)
    [] universities
  |> List.rev
