open Vectors

type constraint_ = {
  p : int;
  o : int option;
}

(* A sorted source of subject ids: either a terminal s-list or the keys
   of a pso header — accessed in place, never copied. *)
let source_of h { p; o } =
  if p < 0 then Sorted_ivec.create ~capacity:1 ()
  else
    match o with
    | Some o -> (
        match Hexa.Hexastore.subjects_of_po h ~p ~o with
        | Some v -> v
        | None -> Sorted_ivec.create ~capacity:1 ())
    | None -> Hexa.Index.key_slice (Hexa.Hexastore.pso h) p

(* Leapfrog-style k-way intersection: drive from the smallest source and
   seek the others forward; every cursor is monotone. *)
let intersect_sources sources =
  match List.sort (fun a b -> compare (Sorted_ivec.length a) (Sorted_ivec.length b)) sources with
  | [] -> None
  | smallest :: rest ->
      let out = Sorted_ivec.create ~capacity:(max 1 (Sorted_ivec.length smallest)) () in
      let cursors = Array.of_list rest in
      let positions = Array.make (Array.length cursors) 0 in
      (try
         Sorted_ivec.iter
           (fun x ->
             let ok = ref true in
             Array.iteri
               (fun k src ->
                 if !ok then begin
                   let j = Sorted_ivec.search_from src ~from:positions.(k) x in
                   positions.(k) <- j;
                   if j >= Sorted_ivec.length src then raise Exit;
                   if Sorted_ivec.get src j <> x then ok := false
                 end)
               cursors;
             if !ok then ignore (Sorted_ivec.add out x))
           smallest
       with Exit -> ());
      Some out

let subjects h constraints =
  match constraints with
  | [] -> Hexa.Hexastore.subjects h
  | _ -> (
      let sources = List.map (source_of h) constraints in
      if List.exists Sorted_ivec.is_empty sources then Sorted_ivec.create ()
      else
        match intersect_sources sources with
        | Some out -> out
        | None -> Sorted_ivec.create ())

let count h constraints = Sorted_ivec.length (subjects h constraints)

let of_bgp h (tps : Algebra.tp list) =
  let dict = Hexa.Hexastore.dict h in
  let subject_var = function
    | { Algebra.s = Algebra.Var v; _ } -> Some v
    | _ -> None
  in
  match tps with
  | [] -> None
  | first :: _ -> (
      match subject_var first with
      | None -> None
      | Some v ->
          let vars_ok =
            List.for_all (fun tp -> subject_var tp = Some v) tps
          in
          if not vars_ok then None
          else
            let constraint_of (tp : Algebra.tp) =
              match (tp.p, tp.o) with
              | Algebra.Var _, _ -> None  (* property must be constant *)
              | Algebra.Term pt, o -> (
                  let pid =
                    match Compile.term_id dict pt with Some id -> id | None -> -1
                  in
                  match o with
                  | Algebra.Term ot -> (
                      match Compile.term_id dict ot with
                      | Some oid -> Some { p = pid; o = Some oid }
                      | None -> Some { p = -1; o = None })
                  | Algebra.Var ov ->
                      (* Free object: only usable if the variable is not
                         the subject variable itself. *)
                      if ov = v then None else Some { p = pid; o = None })
            in
            (* Free-object variables must be pairwise distinct, or the BGP
               is an object join, not a star. *)
            let obj_vars =
              List.filter_map
                (fun (tp : Algebra.tp) ->
                  match tp.o with Algebra.Var ov -> Some ov | Algebra.Term _ -> None)
                tps
            in
            let distinct = List.length (List.sort_uniq compare obj_vars) = List.length obj_vars in
            if not distinct then None
            else
              let constraints = List.map constraint_of tps in
              if List.exists Option.is_none constraints then None
              else Some (v, List.map Option.get constraints))
