open Vectors
module V = Violation

(* Validators accumulate into a reverse-ordered list ref; [finish] restores
   discovery order. *)
let add acc v = acc := v :: !acc
let finish acc = List.rev !acc

(* --- vectors ---------------------------------------------------------- *)

let sorted_ivec_acc acc ~path v =
  let n = Sorted_ivec.length v in
  for i = 1 to n - 1 do
    let a = Sorted_ivec.get v (i - 1) and b = Sorted_ivec.get v i in
    if a >= b then
      add acc (V.v V.Vector ~path "elements out of order at %d: %d >= %d" i a b)
  done;
  (* Compressed slices additionally carry per-block headers (mins, widths,
     offsets, first-values); [block_violations] is [] on raw vectors. *)
  List.iter
    (fun msg -> add acc (V.v V.Vector ~path "block header: %s" msg))
    (Sorted_ivec.block_violations v)

let sorted_ivec ?(path = "sorted_ivec") v =
  let acc = ref [] in
  sorted_ivec_acc acc ~path v;
  finish acc

(* --- one ordering ------------------------------------------------------ *)

(* The index's own audit ({!Hexa.Index.violations}): the columns first,
   then, once they are sound, every header read by entry — keys and runs
   ascending, runs non-empty, totals equal to the runs' lengths.
   [true] when it found nothing. *)
let index_acc acc ~path idx =
  let errs = Hexa.Index.violations idx in
  List.iter (fun msg -> add acc (V.v V.Index ~path "%s" msg)) errs;
  errs = []

let index ?(path = "index") idx =
  let acc = ref [] in
  ignore (index_acc acc ~path idx);
  finish acc

(* --- the Hexastore ----------------------------------------------------- *)

(* [expect_shared acc canonical found] checks that a terminal list
   reached through another ordering (or accessor table) is the
   canonical one — the §4.1 sharing invariant behind the 5x space bound:
   the same window of the same stream ({!Sorted_ivec.shares}). *)
let expect_shared acc ~path ~twin canonical = function
  | None -> add acc (V.v V.Store ~path "terminal list missing from %s" twin)
  | Some l ->
      if not (Sorted_ivec.shares l canonical) then
        add acc (V.v V.Store ~path "terminal list in %s is a distinct copy, not shared" twin)

(* Every entry of [twin] must reach, at the same offsets, the owner's
   run for the same (first, second); equal entry counts then make the
   twin's entries a bijection onto the owner's.  The walk reads the
   twin's columns, so it runs only on a twin its own audit passed. *)
let twin_walk_acc acc ~path ~owner ~twin =
  let open Hexa in
  let entries idx = Index.entry_off idx (Index.header_count idx) in
  let no = entries owner and nt = entries twin in
  if no <> nt then add acc (V.v V.Store ~path "owner has %d entries, twin %d" no nt);
  let hs = Index.headers_view twin in
  for r = 0 to Sorted_ivec.length hs - 1 do
    let h = Sorted_ivec.get hs r in
    for j = Index.entry_off twin r to Index.entry_off twin (r + 1) - 1 do
      let k = Index.key twin j in
      let path = Printf.sprintf "%s[%d][%d]" path h k in
      match Index.find_list owner k h with
      | None -> add acc (V.v V.Store ~path "twin entry has no owner run (%d, %d)" k h)
      | Some l' ->
          if not (Sorted_ivec.shares (Index.run twin j) l') then
            add acc (V.v V.Store ~path "twin entry does not slice the owner's run for (%d, %d)" k h)
    done
  done

let twins_acc acc ~path ~owner ~twin =
  match Hexa.Index.violations twin with
  | _ :: _ as errs -> List.iter (fun msg -> add acc (V.v V.Store ~path "twin columns: %s" msg)) errs
  | [] -> twin_walk_acc acc ~path ~owner ~twin

let twins ?(path = "twin") ~owner ~twin () =
  let acc = ref [] in
  twins_acc acc ~path ~owner ~twin;
  finish acc

(* Sibling orderings (the same first position) read one header level,
   physically: a value-equal copy answers every read alike but stores
   the headers, their rank and their totals twice. *)
let siblings_acc acc ~path a b =
  if not (Hexa.Index.shares_level a b) then
    add acc (V.v V.Store ~path "sibling header level is a distinct copy, not shared")

let siblings ?(path = "siblings") a b =
  let acc = ref [] in
  siblings_acc acc ~path a b;
  finish acc

let expect_member acc ~path ~twin elt = function
  | None -> add acc (V.v V.Store ~path "terminal list missing from %s" twin)
  | Some l ->
      if not (Sorted_ivec.mem l elt) then
        add acc (V.v V.Store ~path "%s list lacks element %d" twin elt)

let store_acc acc h =
  let open Hexa in
  let size = Hexastore.size h in
  let orderings =
    [
      ("spo", Hexastore.spo h);
      ("sop", Hexastore.sop h);
      ("pso", Hexastore.pso h);
      ("pos", Hexastore.pos h);
      ("osp", Hexastore.osp h);
      ("ops", Hexastore.ops h);
    ]
  in
  (* Each ordering is audited once; a twin whose audit failed is not
     walked for sharing. *)
  let sound =
    List.filter_map
      (fun (name, idx) ->
        let audited = index_acc acc ~path:name idx in
        let total = Index.total idx in
        if total <> size then
          add acc (V.v V.Store ~path:name "index total %d disagrees with store size %d" total size);
        if audited then Some name else None)
      orderings
  in
  let twin name ~owner ~twin = if List.mem name sound then twin_walk_acc acc ~path:name ~owner ~twin in
  twin "pso" ~owner:(Hexastore.spo h) ~twin:(Hexastore.pso h);
  twin "osp" ~owner:(Hexastore.sop h) ~twin:(Hexastore.osp h);
  twin "ops" ~owner:(Hexastore.pos h) ~twin:(Hexastore.ops h);
  siblings_acc acc ~path:"spo/sop" (Hexastore.spo h) (Hexastore.sop h);
  siblings_acc acc ~path:"pso/pos" (Hexastore.pso h) (Hexastore.pos h);
  siblings_acc acc ~path:"osp/ops" (Hexastore.osp h) (Hexastore.ops h);
  (* Walk spo once; every triple must be reachable through the owners of
     the two other list families, and the three terminal lists must be
     the ones the direct accessor tables hand out. *)
  let seen = ref 0 in
  let spo = Hexastore.spo h in
  let hs = Index.headers_view spo in
  for r = 0 to Sorted_ivec.length hs - 1 do
    let s = Sorted_ivec.get hs r in
    for k = Index.entry_off spo r to Index.entry_off spo (r + 1) - 1 do
      let p = Index.key spo k and o_list = Index.run spo k in
      let path = Printf.sprintf "spo[%d][%d]" s p in
      expect_shared acc ~path ~twin:"objects_of_sp" o_list (Hexastore.objects_of_sp h ~s ~p);
      Sorted_ivec.iter
        (fun o ->
          incr seen;
          let path = Printf.sprintf "spo triple (%d,%d,%d)" s p o in
          let p_list = Index.find_list (Hexastore.sop h) s o in
          expect_member acc ~path ~twin:"sop" p p_list;
          (match p_list with
          | Some pl ->
              expect_shared acc ~path ~twin:"properties_of_so" pl (Hexastore.properties_of_so h ~s ~o)
          | None -> ());
          let s_list = Index.find_list (Hexastore.pos h) p o in
          expect_member acc ~path ~twin:"pos" s s_list;
          match s_list with
          | Some sl ->
              expect_shared acc ~path ~twin:"subjects_of_po" sl (Hexastore.subjects_of_po h ~p ~o)
          | None -> ())
        o_list
    done
  done;
  if !seen <> size then
    add acc (V.v V.Store ~path:"spo" "spo reaches %d triples but store size is %d" !seen size)

(* --- dictionaries ------------------------------------------------------ *)

let dictionary_acc acc d =
  let open Rdf in
  for id = 0 to Dictionary.size d - 1 do
    let s = Dictionary.decode d id in
    match Dictionary.find d s with
    | Some id' when id' = id -> ()
    | Some id' ->
        add acc
          (V.v V.Dictionary ~path:(Printf.sprintf "id %d" id)
             "decode/find round-trip maps %S to id %d" s id')
    | None ->
        add acc
          (V.v V.Dictionary ~path:(Printf.sprintf "id %d" id) "decoded string %S is unknown" s)
  done

let dictionary d =
  let acc = ref [] in
  dictionary_acc acc d;
  finish acc

let term_dict_acc acc d =
  let open Dict in
  for id = 0 to Term_dict.size d - 1 do
    let term = Term_dict.decode_term d id in
    match Term_dict.find_term d term with
    | Some id' when id' = id -> ()
    | Some id' ->
        add acc
          (V.v V.Dictionary ~path:(Printf.sprintf "id %d" id)
             "decode/find round-trip maps %a to id %d" Rdf.Term.pp term id')
    | None ->
        add acc
          (V.v V.Dictionary ~path:(Printf.sprintf "id %d" id) "decoded term %a is unknown"
             Rdf.Term.pp term)
  done

let term_dict d =
  let acc = ref [] in
  term_dict_acc acc d;
  finish acc

let store h =
  let acc = ref [] in
  store_acc acc h;
  term_dict_acc acc (Hexa.Hexastore.dict h);
  finish acc

(* --- delta layer -------------------------------------------------------- *)

(* How many merged triples get the full 8-shape pattern cross-check
   against the flushed clone.  Capped so [delta] stays usable inside the
   differential checker's per-op validation loop. *)
let delta_sample_cap = 16

let delta d =
  let open Hexa in
  let acc = ref [] in
  let base = Delta.base d in
  store_acc acc base;
  term_dict_acc acc (Hexastore.dict base);
  let tr_path { Dict.Term_dict.s; p; o } = Printf.sprintf "(%d,%d,%d)" s p o in
  (* The level: every ordering's run is a whole number of triplets,
     strictly ascending in that ordering, and holds the same set; its
     inserts are absent from the base, its tombstones present. *)
  let triples_of (r : int array) =
    List.init (Array.length r / 3) (fun i ->
        { Dict.Term_dict.s = r.(3 * i); p = r.((3 * i) + 1); o = r.((3 * i) + 2) })
  in
  let level ~tombstones =
    let what = if tombstones then "level tombstones" else "level inserts" in
    let reference = List.sort compare (triples_of (Delta.level_run d ~tombstones Ordering.Spo)) in
    List.iter
      (fun ord ->
        let path = Printf.sprintf "%s/%s" what (Ordering.name ord) in
        let r = Delta.level_run d ~tombstones ord in
        if Array.length r mod 3 <> 0 then
          add acc (V.v V.Delta ~path "run of %d ints is not a whole number of triples" (Array.length r));
        let trs = triples_of r in
        let rec sorted i = function
          | a :: (b :: _ as rest) ->
              if Ordering.compare_triples ord a b >= 0 then
                add acc (V.v V.Delta ~path "out of order at %d: %s then %s" i (tr_path a) (tr_path b));
              sorted (i + 1) rest
          | _ -> ()
        in
        sorted 1 trs;
        if List.sort compare trs <> reference then
          add acc (V.v V.Delta ~path "holds a different set than the spo run"))
      Ordering.all;
    List.iter
      (fun tr ->
        match (tombstones, Hexastore.mem_ids base tr) with
        | false, true -> add acc (V.v V.Delta ~path:(tr_path tr) "level insert already present in base")
        | true, false ->
            add acc (V.v V.Delta ~path:(tr_path tr) "level tombstone for a triple the base does not hold")
        | _ -> ())
      reference;
    reference
  in
  let level_ins = level ~tombstones:false and level_del = level ~tombstones:true in
  (* Base ∪ level, before the buffers: the set the buffers stage against. *)
  let settled = Hashtbl.create 64 in
  ignore (Hexastore.fold (fun tr () -> Hashtbl.replace settled tr ()) base ());
  List.iter (Hashtbl.remove settled) level_del;
  List.iter (fun tr -> Hashtbl.replace settled tr ()) level_ins;
  (* Buffer coherence: inserts ∉ base ∪ level, deletes ⊆ base ∪ level,
     buffers disjoint. *)
  let deletes = Hashtbl.create 16 in
  Delta.iter_pending_deletes
    (fun tr ->
      Hashtbl.replace deletes tr ();
      if not (Hashtbl.mem settled tr) then
        add acc (V.v V.Delta ~path:(tr_path tr) "tombstone for a triple base ∪ level does not hold"))
    d;
  Delta.iter_pending_inserts
    (fun tr ->
      if Hashtbl.mem settled tr then
        add acc (V.v V.Delta ~path:(tr_path tr) "buffered insert already present in base ∪ level");
      if Hashtbl.mem deletes tr then
        add acc (V.v V.Delta ~path:(tr_path tr) "triple buffered as both insert and delete"))
    d;
  (* Merged-view fidelity: the delta must be observationally equal — same
     triples, same per-shape order, same counts — to a clone loaded from
     empty with the final set (settled − deletes + inserts) in one bulk
     write, a path that shares nothing with the delta's own refills. *)
  Hashtbl.iter (fun tr () -> Hashtbl.remove settled tr) deletes;
  Delta.iter_pending_inserts (fun tr -> Hashtbl.replace settled tr ()) d;
  let clone = Hexastore.create ~dict:(Hexastore.dict base) () in
  ignore (Hexastore.add_bulk_ids clone (Array.of_seq (Hashtbl.to_seq_keys settled)));
  if Delta.size d <> Hexastore.size clone then
    add acc
      (V.v V.Delta ~path:"size" "merged size %d disagrees with flushed clone %d" (Delta.size d)
         (Hexastore.size clone));
  let check_pattern pat =
    let path = Format.asprintf "pattern %a" Pattern.pp pat in
    let merged = Model.pushed (Delta.iter d pat) in
    let flushed = Model.pushed (Hexastore.iter clone pat) in
    if merged <> flushed then
      add acc
        (V.v V.Delta ~path "merged view disagrees with flushed clone (%d vs %d triples, or order)"
           (List.length merged) (List.length flushed));
    if Delta.count d pat <> Hexastore.count clone pat then
      add acc
        (V.v V.Delta ~path "merged count %d disagrees with flushed clone %d" (Delta.count d pat)
           (Hexastore.count clone pat))
  in
  check_pattern Pattern.wildcard;
  let sample = List.rev (Hexastore.fold (fun tr l -> tr :: l) clone []) in
  let n = List.length sample in
  let stride = max 1 (n / delta_sample_cap) in
  List.iteri
    (fun i ({ Dict.Term_dict.s; p; o } as tr) ->
      if i mod stride = 0 then begin
        List.iter check_pattern
          [
            Pattern.of_triple tr;
            Pattern.make ~s ~p ();
            Pattern.make ~s ~o ();
            Pattern.make ~p ~o ();
            Pattern.make ~s ();
            Pattern.make ~p ();
            Pattern.make ~o ();
          ]
      end)
    sample;
  finish acc

(* --- dataset ----------------------------------------------------------- *)

let dataset d =
  let open Hexa in
  let acc = ref [] in
  let dict = Dataset.dict d in
  let graphs =
    (None, Dataset.default_graph d)
    :: List.filter_map
         (fun name -> Option.map (fun g -> (Some name, g)) (Dataset.graph d name))
         (Dataset.graph_names d)
  in
  let total = ref 0 in
  List.iter
    (fun (name, g) ->
      let path =
        match name with
        | None -> "default graph"
        | Some t -> Format.asprintf "graph %a" Rdf.Term.pp t
      in
      total := !total + Hexastore.size g;
      if not (Hexastore.dict g == dict) then
        add acc (V.v V.Dataset ~path "graph does not share the dataset dictionary");
      List.iter (fun v -> add acc { v with Violation.path = path ^ "." ^ v.Violation.path })
        (store g))
    graphs;
  if !total <> Dataset.size d then
    add acc
      (V.v V.Dataset ~path:"size" "dataset size %d disagrees with sum over graphs %d"
         (Dataset.size d) !total);
  finish acc

(* --- snapshot round-trip ----------------------------------------------- *)

let snapshot_roundtrip h =
  let open Hexa in
  let acc = ref [] in
  (* Precondition: a snapshot's ids are positional in the dictionary, so
     every id the store uses must actually be allocated there.  Saying so
     beats the opaque corruption error a round-trip would report. *)
  let dict_size = Dict.Term_dict.size (Hexastore.dict h) in
  let bad_ids = ref 0 in
  Hexastore.fold
    (fun { s; p; o } () ->
      if s >= dict_size || p >= dict_size || o >= dict_size then incr bad_ids)
    h ();
  if !bad_ids > 0 then
    [
      V.v V.Snapshot ~path:"store"
        "%d triple(s) use ids outside the dictionary (size %d); only dictionary-encoded stores \
         are snapshotable"
        !bad_ids dict_size;
    ]
  else begin
  let file = Filename.temp_file "hexcheck" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      match
        Snapshot.save h file;
        Snapshot.load file
      with
      | exception Snapshot.Corrupt msg ->
          add acc (V.v V.Snapshot ~path:file "round-trip reported corruption: %s" msg)
      | h' ->
          if Hexastore.size h' <> Hexastore.size h then
            add acc
              (V.v V.Snapshot ~path:file "size changed across round-trip: %d -> %d"
                 (Hexastore.size h) (Hexastore.size h'));
          let triples_of st = List.rev (Hexastore.fold (fun tr l -> tr :: l) st []) in
          if triples_of h' <> triples_of h then
            add acc (V.v V.Snapshot ~path:file "triple set changed across round-trip");
          let d = Hexastore.dict h and d' = Hexastore.dict h' in
          if Dict.Term_dict.size d' <> Dict.Term_dict.size d then
            add acc
              (V.v V.Snapshot ~path:file "dictionary size changed across round-trip: %d -> %d"
                 (Dict.Term_dict.size d) (Dict.Term_dict.size d'))
          else
            for id = 0 to Dict.Term_dict.size d - 1 do
              let a = Dict.Term_dict.decode_term d id
              and b = Dict.Term_dict.decode_term d' id in
              if Rdf.Term.compare a b <> 0 then
                add acc
                  (V.v V.Snapshot ~path:file "dictionary id %d decodes differently: %a vs %a" id
                     Rdf.Term.pp a Rdf.Term.pp b)
            done;
          List.iter (fun v -> add acc { v with Violation.path = "reloaded." ^ v.Violation.path })
            (store h'));
  finish acc
  end
