open Hexa

type t =
  | Hexa of Hexastore.t
  | Partial of Partial.t

type kind =
  | K_hexastore
  | K_covp1
  | K_covp2

let all_kinds = [ K_hexastore; K_covp1; K_covp2 ]

let kind_name = function
  | K_hexastore -> "Hexastore"
  | K_covp1 -> "COVP1"
  | K_covp2 -> "COVP2"

let create ?dict = function
  | K_hexastore -> Hexa (Hexastore.create ?dict ())
  | K_covp1 -> Partial (Partial.create ?dict ~orderings:[ Ordering.Pso ] ())
  | K_covp2 -> Partial (Partial.create ?dict ~orderings:[ Ordering.Pso; Ordering.Pos ] ())

let pso = function
  | Hexa h -> Hexastore.pso h
  | Partial p -> (
      match Partial.index p Ordering.Pso with
      | Some idx -> idx
      | None -> invalid_arg "Stores.pso: the partial store does not keep pso")

let pos = function
  | Hexa h -> Some (Hexastore.pos h)
  | Partial p -> Partial.index p Ordering.Pos

let boxed = function
  | Hexa h -> Store_sig.box_hexastore h
  | Partial p -> Store_sig.box_partial p

let name t = Store_sig.name (boxed t)
let dict t = Store_sig.dict (boxed t)
let size t = Store_sig.size (boxed t)
let load t triples = Store_sig.add_bulk_ids (boxed t) triples
let memory_words t = Store_sig.memory_words (boxed t)
