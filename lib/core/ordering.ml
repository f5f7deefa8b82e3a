type t =
  | Spo
  | Sop
  | Pso
  | Pos
  | Osp
  | Ops

let all = [ Spo; Sop; Pso; Pos; Osp; Ops ]

let name = function
  | Spo -> "spo"
  | Sop -> "sop"
  | Pso -> "pso"
  | Pos -> "pos"
  | Osp -> "osp"
  | Ops -> "ops"

let of_name = function
  | "spo" -> Some Spo
  | "sop" -> Some Sop
  | "pso" -> Some Pso
  | "pos" -> Some Pos
  | "osp" -> Some Osp
  | "ops" -> Some Ops
  | _ -> None

let for_shape = function
  | Pattern.All -> Spo       (* membership goes through the shared (s,p) o-list *)
  | Pattern.Sp -> Spo
  | Pattern.So -> Sop
  | Pattern.Po -> Pos
  | Pattern.S -> Spo
  | Pattern.P -> Pso
  | Pattern.O -> Osp
  | Pattern.None_bound -> Spo

let positions = function
  | Spo -> [ Pattern.Subj; Pattern.Pred; Pattern.Obj ]
  | Sop -> [ Pattern.Subj; Pattern.Obj; Pattern.Pred ]
  | Pso -> [ Pattern.Pred; Pattern.Subj; Pattern.Obj ]
  | Pos -> [ Pattern.Pred; Pattern.Obj; Pattern.Subj ]
  | Osp -> [ Pattern.Obj; Pattern.Subj; Pattern.Pred ]
  | Ops -> [ Pattern.Obj; Pattern.Pred; Pattern.Subj ]

let twin = function
  | Spo -> Pso
  | Pso -> Spo
  | Sop -> Osp
  | Osp -> Sop
  | Pos -> Ops
  | Ops -> Pos

(* One specialised comparator per ordering: the full triple compared in
   the ordering's significance order, with no tuple allocation and no
   polymorphic compare. *)
let cmp_spo (a : Dict.Term_dict.id_triple) (b : Dict.Term_dict.id_triple) =
  let c = Int.compare a.s b.s in
  if c <> 0 then c
  else
    let c = Int.compare a.p b.p in
    if c <> 0 then c else Int.compare a.o b.o

let cmp_sop (a : Dict.Term_dict.id_triple) (b : Dict.Term_dict.id_triple) =
  let c = Int.compare a.s b.s in
  if c <> 0 then c
  else
    let c = Int.compare a.o b.o in
    if c <> 0 then c else Int.compare a.p b.p

let cmp_pso (a : Dict.Term_dict.id_triple) (b : Dict.Term_dict.id_triple) =
  let c = Int.compare a.p b.p in
  if c <> 0 then c
  else
    let c = Int.compare a.s b.s in
    if c <> 0 then c else Int.compare a.o b.o

let cmp_pos (a : Dict.Term_dict.id_triple) (b : Dict.Term_dict.id_triple) =
  let c = Int.compare a.p b.p in
  if c <> 0 then c
  else
    let c = Int.compare a.o b.o in
    if c <> 0 then c else Int.compare a.s b.s

let cmp_osp (a : Dict.Term_dict.id_triple) (b : Dict.Term_dict.id_triple) =
  let c = Int.compare a.o b.o in
  if c <> 0 then c
  else
    let c = Int.compare a.s b.s in
    if c <> 0 then c else Int.compare a.p b.p

let cmp_ops (a : Dict.Term_dict.id_triple) (b : Dict.Term_dict.id_triple) =
  let c = Int.compare a.o b.o in
  if c <> 0 then c
  else
    let c = Int.compare a.p b.p in
    if c <> 0 then c else Int.compare a.s b.s

let compare_triples = function
  | Spo -> cmp_spo
  | Sop -> cmp_sop
  | Pso -> cmp_pso
  | Pos -> cmp_pos
  | Osp -> cmp_osp
  | Ops -> cmp_ops

let compare = Stdlib.compare

let equal a b = a = b

let pp ppf t = Format.pp_print_string ppf (name t)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
