type t = {
  dict : Dict.Term_dict.t;
  default : Hexastore.t;
  named : (Rdf.Term.t, Hexastore.t) Hashtbl.t;
}

let create ?dict () =
  let dict = match dict with Some d -> d | None -> Dict.Term_dict.create () in
  { dict; default = Hexastore.create ~dict (); named = Hashtbl.create 8 }

let dict t = t.dict
let default_graph t = t.default

let graph t name = Hashtbl.find_opt t.named name

let get_or_create_graph t name =
  (match name with
  | Rdf.Term.Literal _ -> invalid_arg "Dataset.get_or_create_graph: literal graph name"
  | Rdf.Term.Iri _ | Rdf.Term.Blank _ -> ());
  match Hashtbl.find_opt t.named name with
  | Some h -> h
  | None ->
      let h = Hexastore.create ~dict:t.dict () in
      Hashtbl.add t.named name h;
      h

let drop_graph t name =
  if Hashtbl.mem t.named name then begin
    Hashtbl.remove t.named name;
    true
  end
  else false

let graph_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.named [] |> List.sort Rdf.Term.compare

let target t = function None -> t.default | Some name -> get_or_create_graph t name

let add t ?graph triple = Hexastore.add (target t graph) triple

let remove t ?graph triple =
  match graph with
  | None -> Hexastore.remove t.default triple
  | Some name -> (
      (* Removal must not create an empty graph as a side effect. *)
      match Hashtbl.find_opt t.named name with
      | None -> false
      | Some h -> Hexastore.remove h triple)

let size t =
  Hashtbl.fold (fun _ h acc -> acc + Hexastore.size h) t.named (Hexastore.size t.default)

let lookup t ?graph pat f =
  match graph with
  | None -> Hexastore.iter t.default pat f
  | Some name -> Option.iter (fun h -> Hexastore.iter h pat f) (Hashtbl.find_opt t.named name)

let lookup_all t pat f =
  Hexastore.iter t.default pat (f None);
  List.iter
    (fun name -> Hexastore.iter (Hashtbl.find t.named name) pat (f (Some name)))
    (graph_names t)

let union_store t =
  let out = Hexastore.create ~dict:t.dict () in
  let load h = ignore (Hexastore.add_bulk_ids out (Array.of_list (Hexastore.fold List.cons h []))) in
  load t.default;
  Hashtbl.iter (fun _ h -> load h) t.named;
  out

let memory_words t =
  Hashtbl.fold
    (fun _ h acc -> acc + Hexastore.memory_words h)
    t.named
    (Hexastore.memory_words t.default)
