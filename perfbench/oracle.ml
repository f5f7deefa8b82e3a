(* The benchmark's independent answer source: a naive evaluator over
   plain sorted arrays of the encoded triples.  It shares no code with
   the store's indices, codecs, planner, executor or pool, so a wrong
   answer from any of them shows up as a mismatch.  The same query
   value renders the SPARQL text the system under test runs. *)

type triple = Dict.Term_dict.id_triple = { s : int; p : int; o : int }

type t = {
  by_s : triple array;  (** sorted on (s, p, o), duplicates removed *)
  by_p : triple array;  (** sorted on (p, o, s) *)
  by_o : triple array;  (** sorted on (o, s, p) *)
  added_s : (int, (triple, unit) Hashtbl.t) Hashtbl.t;  (** inserts made after set-up, by subject *)
  added_o : (int, (triple, unit) Hashtbl.t) Hashtbl.t;
      (** the same inserts, by object.  Sets, not lists: every insert
          shares the object of its [rdf:type] triple, and copying that
          list on each removal would fill the heap the run measures. *)
  removed : (triple, unit) Hashtbl.t;  (** set-up triples removed since *)
}

let sorted cmp a =
  let a = Array.copy a in
  Array.sort cmp a;
  a

let create (ids : triple array) =
  let by_s = sorted compare ids in
  let n = Array.length by_s in
  let uniq =
    if n = 0 then [||]
    else begin
      let keep = ref 1 in
      for i = 1 to n - 1 do
        if by_s.(i) <> by_s.(!keep - 1) then begin
          by_s.(!keep) <- by_s.(i);
          incr keep
        end
      done;
      Array.sub by_s 0 !keep
    end
  in
  {
    by_s = uniq;
    by_p = sorted (fun a b -> compare (a.p, a.o, a.s) (b.p, b.o, b.s)) uniq;
    by_o = sorted (fun a b -> compare (a.o, a.s, a.p) (b.o, b.s, b.p)) uniq;
    added_s = Hashtbl.create 1024;
    added_o = Hashtbl.create 1024;
    removed = Hashtbl.create 64;
  }

(* First index whose key is >= k. *)
let lower_bound arr key k =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key arr.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let range arr key k f =
  let i = ref (lower_bound arr key k) in
  while !i < Array.length arr && key arr.(!i) = k do
    f arr.(!i);
    incr i
  done

let in_base t tr =
  let found = ref false in
  range t.by_s (fun x -> x.s) tr.s (fun x -> if x = tr then found := true);
  !found

let in_added t tr =
  match Hashtbl.find_opt t.added_s tr.s with Some set -> Hashtbl.mem set tr | None -> false

let mem t tr = (in_base t tr && not (Hashtbl.mem t.removed tr)) || in_added t tr

let push tbl k tr =
  match Hashtbl.find_opt tbl k with
  | Some set -> Hashtbl.replace set tr ()
  | None ->
      let set = Hashtbl.create 4 in
      Hashtbl.replace set tr ();
      Hashtbl.replace tbl k set

let drop tbl k tr =
  match Hashtbl.find_opt tbl k with
  | Some set ->
      Hashtbl.remove set tr;
      if Hashtbl.length set = 0 then Hashtbl.remove tbl k
  | None -> ()

let add t tr =
  if Hashtbl.mem t.removed tr then Hashtbl.remove t.removed tr
  else if not (mem t tr) then begin
    push t.added_s tr.s tr;
    push t.added_o tr.o tr
  end

let remove t tr =
  if in_added t tr then begin
    drop t.added_s tr.s tr;
    drop t.added_o tr.o tr
  end
  else if in_base t tr then Hashtbl.replace t.removed tr ()

(* Every live triple matching the bound positions. *)
let matches t ~s ~p ~o f =
  let ok x =
    (match s with Some v -> x.s = v | None -> true)
    && (match p with Some v -> x.p = v | None -> true)
    && match o with Some v -> x.o = v | None -> true
  in
  let base x = if ok x && not (Hashtbl.mem t.removed x) then f x in
  (match (s, p, o) with
  | Some v, _, _ -> range t.by_s (fun x -> x.s) v base
  | None, _, Some v -> range t.by_o (fun x -> x.o) v base
  | None, Some v, None -> range t.by_p (fun x -> x.p) v base
  | None, None, None -> Array.iter base t.by_s);
  let added set = Hashtbl.iter (fun x () -> if ok x then f x) set in
  let added_at tbl v = Option.iter added (Hashtbl.find_opt tbl v) in
  match (s, o) with
  | Some v, _ -> added_at t.added_s v
  | None, Some v -> added_at t.added_o v
  | None, None -> Hashtbl.iter (fun _ set -> added set) t.added_s

(* --- the benchmark's query language ----------------------------------- *)

type atom = V of string | C of int

type tp = atom * atom * atom

type query = {
  vars : string list;  (** projected variables; the group keys when counting *)
  count : string option;  (** [COUNT(?v) AS ?n], grouped by [vars] *)
  alts : tp list list;  (** a basic graph pattern, or the UNION of several *)
  neq : (string * int) list;  (** [FILTER (?v != c)] conjuncts *)
}

let count_column = "n"

let term dict id = Rdf.Term.to_string (Dict.Term_dict.decode_term dict id)

let to_sparql dict q =
  let atom = function V v -> "?" ^ v | C id -> term dict id in
  let tps l = String.concat " " (List.map (fun (s, p, o) -> Printf.sprintf "%s %s %s ." (atom s) (atom p) (atom o)) l) in
  let vars = String.concat " " (List.map (fun v -> "?" ^ v) q.vars) in
  let select =
    match q.count with
    | None -> vars
    | Some v -> Printf.sprintf "%s (COUNT(?%s) AS ?%s)" vars v count_column
  in
  let where =
    match q.alts with
    | [ bgp ] -> tps bgp
    | alts -> String.concat " UNION " (List.map (fun b -> "{ " ^ tps b ^ " }") alts)
  in
  let filters =
    String.concat ""
      (List.map (fun (v, c) -> Printf.sprintf " FILTER (?%s != %s)" v (term dict c)) q.neq)
  in
  let group = match q.count with None -> "" | Some _ -> " GROUP BY " ^ vars in
  Printf.sprintf "SELECT %s WHERE { %s%s }%s" select where filters group

(* Nested-loop evaluation in the order written; a solution is an
   association list from variable to id. *)
let eval_bgp t tps seeds =
  List.fold_left
    (fun sols (s, p, o) ->
      List.concat_map
        (fun env ->
          let bound = function C c -> Some c | V v -> List.assoc_opt v env in
          let out = ref [] in
          matches t ~s:(bound s) ~p:(bound p) ~o:(bound o) (fun x ->
              let bind env a value =
                match env with
                | None -> None
                | Some env -> (
                    match a with
                    | C _ -> Some env
                    | V v -> (
                        match List.assoc_opt v env with
                        | Some w -> if w = value then Some env else None
                        | None -> Some ((v, value) :: env)))
              in
              match bind (bind (bind (Some env) s x.s) p x.p) o x.o with
              | Some env -> out := env :: !out
              | None -> ());
          !out)
        sols)
    seeds tps

(* Decoded rows, sorted, in the cell spelling result tables use. *)
let eval t dict q =
  let sols = List.concat_map (fun bgp -> eval_bgp t bgp [ [] ]) q.alts in
  let sols = List.filter (fun env -> List.for_all (fun (v, c) -> List.assoc_opt v env <> Some c) q.neq) sols in
  let key env = List.map (fun v -> List.assoc v env) q.vars in
  let rows =
    match q.count with
    | None -> List.map (fun env -> List.map (term dict) (key env)) sols
    | Some _ ->
        let groups = Hashtbl.create 64 in
        List.iter
          (fun env ->
            let k = key env in
            Hashtbl.replace groups k (1 + Option.value ~default:0 (Hashtbl.find_opt groups k)))
          sols;
        Hashtbl.fold (fun k n acc -> (List.map (term dict) k @ [ string_of_int n ]) :: acc) groups []
  in
  List.sort compare rows
