open Vectors

(* The mutable build form [Pv] is the historical keys-plus-payload-array
   layout.  [View] is the flat compressed index's window onto its key
   stream: a zero-copy sorted key slice, the precomputed triple total,
   and a function materialising the j-th terminal-list slice on demand.
   Views are transient (constructed per lookup, never stored), so they
   carry no mutation support.  Both forms keep their keys in one
   [Sorted_ivec.t], so every search goes through its kernels. *)
type t =
  | Pv of {
      keys : Sorted_ivec.t; (* raw *)
      mutable payloads : Sorted_ivec.t array; (* parallel to keys; slack beyond length *)
      mutable total_count : int;
    }
  | View of {
      vkeys : Sorted_ivec.t;
      vtotal : int;
      vpay : int -> Sorted_ivec.t;
    }

let dummy = Sorted_ivec.create ~capacity:1 ()

let create ?(capacity = 4) () =
  Pv
    {
      keys = Sorted_ivec.create ~capacity ();
      payloads = Array.make (max capacity 1) dummy;
      total_count = 0;
    }

let view ~keys ~total ~payload = View { vkeys = keys; vtotal = total; vpay = payload }

let frozen op = invalid_arg ("Pair_vector." ^ op ^ ": compressed view is immutable")

let key_vector = function Pv v -> v.keys | View v -> v.vkeys

let length v = Sorted_ivec.length (key_vector v)

let total = function Pv v -> v.total_count | View v -> v.vtotal

let bump_total v d =
  match v with Pv v -> v.total_count <- v.total_count + d | View _ -> frozen "bump_total"

let key_at v i = Sorted_ivec.get (key_vector v) i

let index_geq v x = Sorted_ivec.index_geq (key_vector v) x

let search_from v ~from x = Sorted_ivec.search_from (key_vector v) ~from x

let payload v i = match v with Pv v -> v.payloads.(i) | View v -> v.vpay i

let find v key =
  let i = index_geq v key in
  if i < length v && key_at v i = key then Some (payload v i) else None

let get_or_insert v key mk =
  match v with
  | View _ -> frozen "get_or_insert"
  | Pv r ->
      let n = Sorted_ivec.length r.keys in
      (* Ascending arrivals (the bulk-load case) append without a search. *)
      let i = if n = 0 || key > Sorted_ivec.get r.keys (n - 1) then n else index_geq v key in
      if i < n && Sorted_ivec.get r.keys i = key then r.payloads.(i)
      else begin
        let payload = mk () in
        Sorted_ivec.insert_at r.keys i key;
        if n = Array.length r.payloads then begin
          let bigger = Array.make (2 * n) dummy in
          Array.blit r.payloads 0 bigger 0 n;
          r.payloads <- bigger
        end;
        if i < n then Array.blit r.payloads i r.payloads (i + 1) (n - i);
        r.payloads.(i) <- payload;
        payload
      end

let remove v key =
  match v with
  | View _ -> frozen "remove"
  | Pv r ->
      let i = index_geq v key in
      let n = Sorted_ivec.length r.keys in
      if i < n && Sorted_ivec.get r.keys i = key then begin
        Sorted_ivec.remove_at r.keys i;
        Array.blit r.payloads (i + 1) r.payloads i (n - i - 1);
        r.payloads.(n - 1) <- dummy;
        true
      end
      else false

let payload_at v i =
  if i < 0 || i >= length v then invalid_arg "Pair_vector.payload_at";
  payload v i

let keys v = Sorted_ivec.copy (key_vector v)

let iter f v =
  let keys = key_vector v in
  for i = 0 to Sorted_ivec.length keys - 1 do
    f (Sorted_ivec.get keys i) (payload v i)
  done

let to_seq v =
  let keys = key_vector v in
  let rec aux i () =
    if i >= Sorted_ivec.length keys then Seq.Nil
    else Seq.Cons ((Sorted_ivec.get keys i, payload v i), aux (i + 1))
  in
  aux 0

let memory_words = function
  | Pv r -> Sorted_ivec.memory_words r.keys + Array.length r.payloads + 3
  | View _ -> 8 (* transient: variant block + slice + closure; never aggregated *)

let check_invariant v =
  Sorted_ivec.check_invariant (key_vector v);
  let sum = ref 0 in
  iter (fun _ l -> sum := !sum + Sorted_ivec.length l) v;
  assert (!sum = total v)
