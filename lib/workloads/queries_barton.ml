open Hexa
module SV = Vectors.Sorted_ivec
module Merge = Vectors.Merge

type ids = {
  type_p : int;
  text : int;
  language : int;
  french : int;
  origin : int;
  dlc : int;
  records : int;
  point : int;
  end_point : int;
  encoding : int;
}

let resolve_ids dict =
  let find term = Dict.Term_dict.find_term dict term in
  let iri s = find (Rdf.Term.iri s) in
  match
    ( iri Barton.type_p, iri Barton.text_type, iri Barton.language_p,
      find (Rdf.Term.string_literal Barton.french), iri Barton.origin_p, iri Barton.dlc,
      iri Barton.records_p, iri Barton.point_p, find (Rdf.Term.string_literal "end"),
      iri Barton.encoding_p )
  with
  | ( Some type_p, Some text, Some language, Some french, Some origin, Some dlc,
      Some records, Some point, Some end_point, Some encoding ) ->
      Some { type_p; text; language; french; origin; dlc; records; point; end_point; encoding }
  | _ -> None

let restriction_28 dict =
  List.filter_map
    (fun iri -> Dict.Term_dict.find_term dict (Rdf.Term.iri iri))
    Barton.properties_28

let empty_sv = SV.create ~capacity:1 ()

(* --- shared access helpers -------------------------------------------- *)

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

(* The property set a property-unbound step iterates: every pso table,
   or the pre-selected restriction. *)
let scan_props pso restrict =
  match restrict with Some l -> l | None -> Index.headers_view pso

(* Restrictions are normalised to sorted vectors once per query so the
   per-property phases can iterate them directly in sorted order. *)
let restrict_sv restrict = Option.map SV.of_list restrict

(* Iterate a property's subject-sorted table — the entries of header [p]
   in [pso] — restricted to subjects in [t], merge-join style (both
   sides sorted): a double-galloping merge in which whichever side is
   behind seeks forward with a resumable exponential search.
   Degenerates to a linear merge when the sides interleave densely and
   to O(min log max) when one side is sparse, so it replaces the old
   fixed density-ratio heuristic.  [f s k] gets each shared subject
   with its entry [k], whose run is the subject's o-list. *)
let iter_table_join pso p t f =
  let r = Index.rank pso p in
  if r >= 0 then begin
    let k1 = Index.entry_off pso (r + 1) and nt = SV.length t in
    let rec loop k j =
      if k < k1 && j < nt then begin
        let s = Index.key pso k and x = SV.get t j in
        if s = x then begin
          f s k;
          loop (k + 1) (j + 1)
        end
        else if s < x then loop (Index.next_geq pso ~from:(k + 1) ~hi:k1 x) j
        else loop k (SV.search_from t ~from:(j + 1) s)
      end
    in
    loop (Index.entry_off pso r) 0
  end

(* Does the table share at least one subject with [t]?  The same
   double-galloping walk, stopping at the first hit. *)
let table_intersects pso p t =
  let r = Index.rank pso p in
  r >= 0
  &&
  let k1 = Index.entry_off pso (r + 1) and nt = SV.length t in
  let rec loop k j =
    k < k1 && j < nt
    &&
    let s = Index.key pso k and x = SV.get t j in
    if s = x then true
    else if s < x then loop (Index.next_geq pso ~from:(k + 1) ~hi:k1 x) j
    else loop k (SV.search_from t ~from:(j + 1) s)
  in
  loop (Index.entry_off pso r) 0

(* A count per object: [bump counts o] adds one to [o]'s. *)
let bump counts o = Hashtbl.replace counts o (1 + Option.value ~default:0 (Hashtbl.find_opt counts o))

(* --- BQ1: counts of each Type object ---------------------------------- *)

let bq1 store ids =
  match Stores.pos store with
  | Some pos ->
      (* Hexastore and COVP2: pos index of Type, where each object
         entry's s-list length is the count. *)
      let out = ref [] in
      Index.iter_lengths pos ids.type_p (fun o n -> out := (o, n) :: !out);
      List.rev !out
  | None ->
      (* COVP1: self-join aggregation on object value over pso. *)
      let counts = Hashtbl.create 64 in
      ignore (Index.iter_header (Stores.pso store) ids.type_p (fun _s o -> bump counts o));
      Hashtbl.fold (fun o n acc -> (o, n) :: acc) counts []
      |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- the Type:Text pre-selection --------------------------------------- *)

let text_subjects store ids = subjects_po store ~p:ids.type_p ~o:ids.text

(* --- BQ2: property frequencies over Text subjects ---------------------- *)

(* Phase 2, the same for every competitor: one probe of the pso index,
   then for each property (its sorted header view, or the restriction)
   gallop-intersect the property's subject entries with the sorted [t],
   summing matched o-list lengths.  The Hexastore's earlier spo
   formulation probed the subject index once per Text subject — 12,674
   point probes at full Barton scale — where this one's probe count is
   independent of |t|. *)
let property_frequencies store restrict t =
  let pso = Stores.pso store in
  let out = ref [] in
  SV.iter
    (fun p ->
      let freq = ref 0 in
      iter_table_join pso p t (fun _s k -> freq := !freq + Index.run_length pso k);
      if !freq > 0 then out := (p, !freq) :: !out)
    (scan_props pso restrict);
  List.rev !out

let bq2 ?restrict store ids =
  property_frequencies store (restrict_sv restrict) (text_subjects store ids)

(* --- BQ3: popular objects per property over Text subjects -------------- *)

(* Hexastore: find the relevant property set, then use pos for the
   per-object counts (as §5.2 says it must for this aggregation).  A
   property is relevant when its pso subject entries intersect [t] —
   decided by an early-exit galloping probe, not a per-subject spo
   walk. *)
let hexa_relevant_properties h restrict t =
  let pso = Hexastore.pso h in
  let out = ref [] in
  SV.iter (fun p -> if table_intersects pso p t then out := p :: !out) (scan_props pso restrict);
  List.rev !out

let popular_via_pos pos props t =
  List.filter_map
    (fun p ->
      let r = Index.rank pos p in
      if r < 0 then None
      else begin
        let objs = ref [] in
        for k = Index.entry_off pos r to Index.entry_off pos (r + 1) - 1 do
          let c = Merge.intersect_count_adaptive (Index.run pos k) t in
          if c > 1 then objs := (Index.key pos k, c) :: !objs
        done;
        if !objs = [] then None else Some (p, List.rev !objs)
      end)
    props

let covp1_popular pso restrict t =
  let out = ref [] in
  SV.iter
    (fun p ->
      let counts = Hashtbl.create 16 in
      iter_table_join pso p t (fun _s k -> Index.iter_run pso k (bump counts));
      let objs =
        Hashtbl.fold (fun o c acc -> if c > 1 then (o, c) :: acc else acc) counts []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      if objs <> [] then out := (p, objs) :: !out)
    (scan_props pso restrict);
  List.rev !out

let bq3_over restrict store t =
  match (store, Stores.pos store) with
  | Stores.Hexa h, Some pos ->
      let props = hexa_relevant_properties h restrict t in
      popular_via_pos pos props t
  | _, Some pos ->
      (* COVP2: every property table's pos copy. *)
      let props = SV.to_list (scan_props (Stores.pso store) restrict) in
      popular_via_pos pos props t
  | _, None -> covp1_popular (Stores.pso store) restrict t

let bq3 ?restrict store ids =
  bq3_over (restrict_sv restrict) store (text_subjects store ids)

(* --- BQ4: BQ3 over Text ∧ French subjects ------------------------------ *)

let bq4 ?restrict store ids =
  (* Hexastore & COVP2: merge-join of two pos-derived subject lists;
     COVP1 computes each side by a table scan first — both arrive here as
     sorted vectors, so the intersection is a merge join for everyone,
     with COVP1 having paid the scans. *)
  let t =
    Merge.intersect
      (subjects_po store ~p:ids.type_p ~o:ids.text)
      (subjects_po store ~p:ids.language ~o:ids.french)
  in
  bq3_over (restrict_sv restrict) store t

(* --- BQ5: inference ----------------------------------------------------- *)

(* Sort the table T of (subject, inferred type) by subject (the per-step
   sort of a sort-merge join), then one merge against the (small) list
   s_dlc. *)
let merge_dlc table s_dlc =
  let table = List.sort_uniq compare table in
  let nd = SV.length s_dlc in
  let out = ref [] in
  let j = ref 0 in
  List.iter
    (fun ((subj, _) as row) ->
      while !j < nd && SV.get s_dlc !j < subj do
        incr j
      done;
      if !j < nd && SV.get s_dlc !j = subj then out := row :: !out)
    table;
  List.rev !out

(* §5.2's BQ5 plan for Hexastore/COVP2: merge-join the (sorted) object
   entries of Records in pos with the (sorted) subject entries of Type
   in pso — walked in place, since the Records entries carry the
   recorder s-lists and the Type entries carry the type o-lists —
   keeping objects whose type passes [keep]; fan out through the
   recording subjects into a small table T of (subject, inferred type);
   then sort-merge T once against s_dlc. *)
let infer_via_pos ~pos ~pso ids ~s_dlc ~keep =
  let table = ref [] in
  let rr = Index.rank pos ids.records and rt = Index.rank pso ids.type_p in
  if rr >= 0 && rt >= 0 then begin
    let i1 = Index.entry_off pos (rr + 1) and j1 = Index.entry_off pso (rt + 1) in
    let i = ref (Index.entry_off pos rr) and j = ref (Index.entry_off pso rt) in
    while !i < i1 && !j < j1 do
      let o = Index.key pos !i and s = Index.key pso !j in
      if o = s then begin
        let recorders = !i in
        Index.iter_run pso !j (fun ty ->
            if keep ty then Index.iter_run pos recorders (fun subj -> table := (subj, ty) :: !table));
        incr i;
        incr j
      end
      else if o < s then incr i
      else incr j
    done
  end;
  merge_dlc !table s_dlc

let covp1_infer pso ids ~s_dlc ~keep =
  (* Join s_dlc with the Records subject entries to get recorded objects
     (unsorted by object), sort them, then sort-merge with Type. *)
  let pairs = ref [] in
  iter_table_join pso ids.records s_dlc (fun s k -> Index.iter_run pso k (fun o -> pairs := (o, s) :: !pairs));
  let pairs = List.sort compare !pairs in
  let rt = Index.rank pso ids.type_p in
  if rt < 0 then []
  else begin
    let j1 = Index.entry_off pso (rt + 1) and j = ref (Index.entry_off pso rt) in
    let out = ref [] in
    List.iter
      (fun (o, s) ->
        while !j < j1 && Index.key pso !j < o do
          incr j
        done;
        if !j < j1 && Index.key pso !j = o then
          Index.iter_run pso !j (fun ty -> if keep ty then out := (s, ty) :: !out))
      pairs;
    List.sort_uniq compare !out
  end

let dlc_subjects store ids = subjects_po store ~p:ids.origin ~o:ids.dlc

let bq5_generic store ids ~keep =
  let s_dlc = dlc_subjects store ids in
  let pso = Stores.pso store in
  match Stores.pos store with
  | Some pos -> (* Hexastore and COVP2. *) infer_via_pos ~pos ~pso ids ~s_dlc ~keep
  | None -> covp1_infer pso ids ~s_dlc ~keep

let bq5 store ids = bq5_generic store ids ~keep:(fun ty -> ty <> ids.text)

(* --- BQ6: known-or-inferred Text, aggregated as BQ2 --------------------- *)

let bq6 ?restrict store ids =
  let restrict = restrict_sv restrict in
  let known = text_subjects store ids in
  let inferred = bq5_generic store ids ~keep:(fun ty -> ty = ids.text) in
  let inferred_subjects = SV.of_list (List.map fst inferred) in
  property_frequencies store restrict (Merge.union known inferred_subjects)

(* --- BQ7: Point "end" → Encoding and Type ------------------------------ *)

let bq7 store ids =
  let t = subjects_po store ~p:ids.point ~o:ids.end_point in
  (* All methods proceed by merge-joining t with the subject vectors of
     Encoding and Type (§5.2: COVP2/Hexastore differ only in how t was
     obtained). *)
  let joined p =
    let pso = Stores.pso store in
    let results = Hashtbl.create 64 in
    iter_table_join pso p t (fun s k -> Hashtbl.replace results s (SV.to_list (Index.run pso k)));
    results
  in
  let encodings = joined ids.encoding in
  let types = joined ids.type_p in
  SV.fold
    (fun acc s ->
      let enc = Option.value ~default:[] (Hashtbl.find_opt encodings s) in
      let tys = Option.value ~default:[] (Hashtbl.find_opt types s) in
      (s, enc, tys) :: acc)
    [] t
  |> List.rev
