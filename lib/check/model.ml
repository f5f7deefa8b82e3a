type id_triple = Dict.Term_dict.id_triple = {
  s : int;
  p : int;
  o : int;
}

type t = { mutable triples : id_triple list (* strictly ascending in (s, p, o) *) }

let compare_spo (a : id_triple) (b : id_triple) =
  let c = Int.compare a.s b.s in
  if c <> 0 then c
  else
    let c = Int.compare a.p b.p in
    if c <> 0 then c else Int.compare a.o b.o

let create () = { triples = [] }

let size t = List.length t.triples

let mem t tr = List.exists (fun x -> compare_spo x tr = 0) t.triples

let add t tr =
  let rec insert = function
    | [] -> Some [ tr ]
    | x :: rest as l ->
        let c = compare_spo tr x in
        if c = 0 then None
        else if c < 0 then Some (tr :: l)
        else Option.map (fun rest' -> x :: rest') (insert rest)
  in
  match insert t.triples with
  | None -> false
  | Some l ->
      t.triples <- l;
      true

let remove t tr =
  let removed = ref false in
  let l =
    List.filter
      (fun x ->
        if compare_spo x tr = 0 then begin
          removed := true;
          false
        end
        else true)
      t.triples
  in
  t.triples <- l;
  !removed

let lookup t pat = List.filter (Hexa.Pattern.matches pat) t.triples

let count t pat = List.length (lookup t pat)

let to_list t = t.triples

let pushed read =
  let acc = ref [] in
  read (fun s p o -> acc := { s; p; o } :: !acc);
  List.rev !acc
