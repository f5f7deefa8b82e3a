(* Rows view one shared schema: resolve the columns to slots once per
   schema, not once per cell. *)
let column_slots ~columns schema =
  List.map
    (fun col ->
      let rec find i = if i = Array.length schema then -1 else if schema.(i) = col then i else find (i + 1) in
      find 0)
    columns

(* Each cell is a fresh string: a copy of the spelling the dictionary
   stores, so a table never aliases the dictionary's storage, and two
   cells naming one term are two strings, as a decoder would build
   them. *)
let cell dict row slot =
  let x = if slot < 0 then Binding.unbound else row.(slot) in
  if x >= 0 && x < Dict.Term_dict.size dict then
    let s = Dict.Term_dict.spelling dict x in
    String.sub s 0 (String.length s)
  else match Binding.decode x with None -> "" | Some v -> Binding.value_to_string dict v

let rec cells dict row = function [] -> [] | slot :: rest -> cell dict row slot :: cells dict row rest

let to_table dict ~columns solutions =
  let cache = ref None in
  List.map
    (fun sol ->
      let schema = Binding.schema sol in
      let slots =
        match !cache with
        | Some (last, slots) when last == schema -> slots
        | _ ->
            let slots = column_slots ~columns schema in
            cache := Some (schema, slots);
            slots
      in
      cells dict (Binding.row sol) slots)
    solutions

let pp dict ~columns ppf solutions =
  let rows = to_table dict ~columns solutions in
  let headers = List.map (fun c -> "?" ^ c) columns in
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w c -> max w (String.length c)) ws row)
      (List.map String.length headers)
      rows
  in
  let pp_row ppf row =
    List.iteri
      (fun i c ->
        let w = List.nth widths i in
        Format.fprintf ppf "%s%s  " c (String.make (w - String.length c) ' '))
      row
  in
  let rule = String.concat "" (List.map (fun w -> String.make (w + 2) '-') widths) in
  Format.fprintf ppf "%a@,%s@," pp_row headers rule;
  List.iter (fun row -> Format.fprintf ppf "%a@," pp_row row) rows;
  Format.fprintf ppf "(%d row%s)" (List.length rows) (if List.length rows = 1 then "" else "s")

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv dict ~columns solutions =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (String.concat "," (List.map csv_escape columns));
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (String.concat "," (List.map csv_escape row));
      Buffer.add_char buf '\n')
    (to_table dict ~columns solutions);
  Buffer.contents buf
