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

let emit = function
  | Spo -> fun f a b c -> f a b c
  | Sop -> fun f a b c -> f a c b
  | Pso -> fun f a b c -> f b a c
  | Pos -> fun f a b c -> f c a b
  | Osp -> fun f a b c -> f b c a
  | Ops -> fun f a b c -> f c b a

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

(* LSD: the least significant position first, each pass a stable
   counting sort of the permutation on one column. *)
(* A fresh copy of [a] stably sorted on each position of [passes] in
   turn, so the last one ranks first. *)
let sort_on passes (a : Dict.Term_dict.id_triple array) =
  let column = function
    | Pattern.Subj -> Array.map (fun (tr : Dict.Term_dict.id_triple) -> tr.s) a
    | Pattern.Pred -> Array.map (fun (tr : Dict.Term_dict.id_triple) -> tr.p) a
    | Pattern.Obj -> Array.map (fun (tr : Dict.Term_dict.id_triple) -> tr.o) a
  in
  let perm =
    List.fold_left
      (fun perm pos -> Vectors.Radix.sort (column pos) perm)
      (Array.init (Array.length a) Fun.id)
      passes
  in
  Array.map (fun i -> a.(i)) perm

let sort_triples ord a = sort_on (List.rev (positions ord)) a

let sort_distinct ord triples =
  let sorted = sort_triples ord triples and cmp = compare_triples ord in
  let n = ref 0 in
  Array.iter
    (fun tr ->
      if !n = 0 || cmp sorted.(!n - 1) tr <> 0 then begin
        sorted.(!n) <- tr;
        incr n
      end)
    sorted;
  Array.sub sorted 0 !n

(* A stable pass on [x] over an array sorted on (p, q, r) sorts it on
   (x, then the other two in their (p, q, r) order); a pass on [y] and
   then one on [x] sorts it on (x, y, _). *)
let resort ~from ord a =
  match positions ord with
  | _ when ord = from || Array.length a < 2 -> a
  | [ x; y; z ] when List.filter (( <> ) x) (positions from) = [ y; z ] -> sort_on [ x ] a
  | x :: y :: _ -> sort_on [ y; x ] a
  | _ -> sort_triples ord a

let compare = Stdlib.compare

let equal a b = a = b

let pp ppf t = Format.pp_print_string ppf (name t)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
