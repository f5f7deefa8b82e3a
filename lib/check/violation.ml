type layer =
  | Vector
  | Index
  | Store
  | Delta
  | Dictionary
  | Dataset
  | Snapshot
  | Query
  | Source

type t = {
  layer : layer;
  path : string;
  message : string;
}

let layer_name = function
  | Vector -> "vector"
  | Index -> "index"
  | Store -> "store"
  | Delta -> "delta"
  | Dictionary -> "dictionary"
  | Dataset -> "dataset"
  | Snapshot -> "snapshot"
  | Query -> "query"
  | Source -> "source"

let v layer ~path fmt = Format.kasprintf (fun message -> { layer; path; message }) fmt

let pp ppf t = Format.fprintf ppf "[%s] %s: %s" (layer_name t.layer) t.path t.message

let to_string t = Format.asprintf "%a" pp t

let pp_report ppf = function
  | [] -> Format.fprintf ppf "ok (no violations)"
  | vs ->
      List.iter (fun t -> Format.fprintf ppf "%a@." pp t) vs;
      Format.fprintf ppf "%d violation%s" (List.length vs) (if List.length vs = 1 then "" else "s")
