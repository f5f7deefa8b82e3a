open Vectors

type summary = {
  triples : int;
  distinct_subjects : int;
  distinct_properties : int;
  distinct_objects : int;
  memory_words : int;
  memory_mb : float;
  repr : string;
}

let words_to_mb w = float_of_int (w * 8) /. (1024. *. 1024.)

(* Refreshed on every {!summary}, so a telemetry export taken after a
   stats pass carries the store's current footprint. *)
let m_memory_words = Telemetry.Metrics.gauge "hexastore.memory_words"
let m_memory_mb = Telemetry.Metrics.gauge "hexastore.memory_mb"
let m_triples = Telemetry.Metrics.gauge "hexastore.size_triples"

let summary h =
  let memory_words = Hexastore.memory_words h in
  Telemetry.Metrics.set m_memory_words (float_of_int memory_words);
  Telemetry.Metrics.set m_memory_mb (words_to_mb memory_words);
  Telemetry.Metrics.set m_triples (float_of_int (Hexastore.size h));
  {
    triples = Hexastore.size h;
    distinct_subjects = Sorted_ivec.length (Hexastore.subjects h);
    distinct_properties = Sorted_ivec.length (Hexastore.properties h);
    distinct_objects = Sorted_ivec.length (Hexastore.objects h);
    memory_words;
    memory_mb = words_to_mb memory_words;
    repr = Hexastore.repr_name h;
  }

let property_histogram h =
  let pso = Hexastore.pso h in
  List.rev_map (fun p -> (p, Index.header_triples pso p)) (Sorted_ivec.to_list (Index.headers_view pso))
  |> List.sort (fun (_, a) (_, b) -> compare b a)

type entry_counts = {
  header_entries : int;
  vector_entries : int;
  list_entries : int;
}

(* Read from the offset columns: an ordering's entries are its key
   offsets' last cell.  Each shared terminal list is referenced by two
   orderings but its entries exist once; count them via one ordering per
   family. *)
let entry_counts h =
  let sum f l = List.fold_left (fun acc idx -> acc + f idx) 0 l in
  let all =
    [ Hexastore.spo h; Hexastore.sop h; Hexastore.pso h; Hexastore.pos h;
      Hexastore.osp h; Hexastore.ops h ]
  in
  {
    header_entries = sum Index.header_count all;
    vector_entries = sum (fun idx -> Index.entry_off idx (Index.header_count idx)) all;
    list_entries = sum Index.total [ Hexastore.spo h; Hexastore.sop h; Hexastore.pos h ];
  }

let entries_per_triple h =
  let n = Hexastore.size h in
  if n = 0 then 0.
  else
    let c = entry_counts h in
    float_of_int (c.header_entries + c.vector_entries + c.list_entries) /. float_of_int (3 * n)

let selectivity h pat =
  let n = Hexastore.size h in
  if n = 0 then 0. else float_of_int (Hexastore.count h pat) /. float_of_int n

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>triples: %d@,subjects: %d@,properties: %d@,objects: %d@,memory: %.2f MB@,repr: %s@]"
    s.triples s.distinct_subjects s.distinct_properties s.distinct_objects s.memory_mb s.repr
