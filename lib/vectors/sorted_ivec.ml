(* A sorted vector is either a raw mutable array (what the query layer's
   merges and path closures build their results in) or an immutable
   slice of a shared stream: a window [off, off+len) of a plain
   [int array] ([A], the raw codec) or of a bit-packed payload ([S],
   the packed codec).  Slices are views: they own no payload, so an
   index can expose its hundred-thousand terminal lists as 4-word
   headers over a few big streams.  Mutating a slice raises. *)

type kind = Raw | Packed

let kind_name = function Raw -> "raw" | Packed -> "packed"

let kind_of_name s =
  match String.lowercase_ascii (String.trim s) with
  | "raw" -> Some Raw
  | "packed" -> Some Packed
  | _ -> None

type stream = Ints of int array | Bits of Packed_ivec.t

type t =
  | R of { mutable data : int array; mutable len : int }
  | A of { arr : int array; aoff : int; alen : int }
  | S of { base : Packed_ivec.t; off : int; slen : int }

(* Telemetry: one counter per binary-search call, one per comparison
   step.  Both are single-flag-read no-ops while telemetry is off.
   [m_gallop_skip] records, per galloping seek, how many elements the
   seek jumped over — large values mean the gallop is earning its keep. *)
let m_bsearch = Telemetry.Metrics.counter "vectors.bsearch.probes"
let m_bsearch_steps = Telemetry.Metrics.counter "vectors.bsearch.steps"
let m_gallop_skip = Telemetry.Metrics.histogram "vectors.gallop.skip"

let create ?(capacity = 8) () = R { data = Array.make (max capacity 1) 0; len = 0 }

let singleton x = R { data = [| x |]; len = 1 }

let length = function R r -> r.len | A a -> a.alen | S s -> s.slen

let is_empty v = length v = 0

let kind_of = function R _ | A _ -> Raw | S _ -> Packed

let is_compressed v = kind_of v <> Raw

let unsafe_get v i =
  match v with
  | R r -> Array.unsafe_get r.data i
  | A { arr; aoff; _ } -> Array.unsafe_get arr (aoff + i)
  | S { base; off; _ } -> Packed_ivec.get base (off + i)

let get v i =
  if i < 0 || i >= length v then
    invalid_arg (Printf.sprintf "Sorted_ivec.get: index %d out of bounds [0,%d)" i (length v));
  unsafe_get v i

let min_elt v = if is_empty v then raise Not_found else unsafe_get v 0

let max_elt v = if is_empty v then raise Not_found else unsafe_get v (length v - 1)

(* Index of the first element >= x, i.e. the classic lower bound: a
   binary search with O(1) cell reads on both representations. *)
let index_geq v x =
  Telemetry.Metrics.incr m_bsearch;
  let lo = ref 0 and hi = ref (length v) in
  while !lo < !hi do
    Telemetry.Metrics.incr m_bsearch_steps;
    let mid = (!lo + !hi) / 2 in
    if unsafe_get v mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

let rank = index_geq

let stream_index_geq s ~lo ~hi x =
  Telemetry.Metrics.incr m_bsearch;
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    Telemetry.Metrics.incr m_bsearch_steps;
    let mid = (!lo + !hi) / 2 in
    let v = match s with Ints a -> a.(mid) | Bits b -> Packed_ivec.get b mid in
    if v < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Exponential (galloping) search for the first element >= x, starting
   at index [from].  The doubling phase brackets the answer in
   O(log(skip)) steps, then a binary search pins it down inside the
   bracket, so resuming from the previous hit makes a whole ascending
   probe sequence cost O(n_probes · log(gap)) instead of
   O(n_probes · log n).  {!stream_search_from} is the same search over
   a window of a stream.  The two are not one loop over a [get]
   function: that indirect call per probe made [search_from] 2.2x
   slower (OCaml 5.1 without flambda, dune's dev profile, a 2-vCPU
   x86-64 VM). *)
let search_from v ~from x =
  let n = length v in
  let from = if from < 0 then 0 else from in
  if from >= n then n
  else if unsafe_get v from >= x then from
  else begin
    let step = ref 1 in
    let lo = ref from in
    while !lo + !step < n && unsafe_get v (!lo + !step) < x do
      lo := !lo + !step;
      step := !step * 2
    done;
    let hi = ref (min n (!lo + !step + 1)) in
    (* lo points at an element < x, so the answer is in (lo, hi]. *)
    incr lo;
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if unsafe_get v mid < x then lo := mid + 1 else hi := mid
    done;
    if !Telemetry.Config.enabled then Telemetry.Metrics.observe m_gallop_skip (!lo - from);
    !lo
  end

let mem v x =
  let i = index_geq v x in
  i < length v && unsafe_get v i = x

let find_geq v x =
  let i = index_geq v x in
  if i < length v then Some (unsafe_get v i) else None

let frozen v op =
  let what = match v with S _ -> "compressed vector" | _ -> "slice" in
  invalid_arg ("Sorted_ivec." ^ op ^ ": " ^ what ^ " is immutable")

(* Element moves on the raw form are typed [int] loops, not
   [Array.blit]: on a major-heap array the runtime's blit cannot know
   the cells hold no pointers and pays a write barrier per element,
   about three times the loop's cost per moved int. *)
let move_down (data : int array) ~src ~dst n =
  for j = 0 to n - 1 do
    Array.unsafe_set data (dst + j) (Array.unsafe_get data (src + j))
  done

let move_up (data : int array) ~src ~dst n =
  for j = n - 1 downto 0 do
    Array.unsafe_set data (dst + j) (Array.unsafe_get data (src + j))
  done

(* A copy of [data]'s first [n] cells in a fresh array of [cap]. *)
let regrow (data : int array) n cap =
  let bigger = Array.make cap 0 in
  for j = 0 to n - 1 do
    Array.unsafe_set bigger j (Array.unsafe_get data j)
  done;
  bigger

(* The shifting halves of [add]/[remove], for callers that already
   hold the position from their own search. *)
let insert_at v i x =
  match v with
  | (S _ | A _) as v -> frozen v "insert_at"
  | R r ->
      let n = r.len in
      if i < 0 || i > n then invalid_arg "Sorted_ivec.insert_at: index out of bounds";
      if n = Array.length r.data then r.data <- regrow r.data n (max 8 (2 * n));
      move_up r.data ~src:i ~dst:(i + 1) (n - i);
      Array.unsafe_set r.data i x;
      r.len <- n + 1

let remove_at v i =
  match v with
  | (S _ | A _) as v -> frozen v "remove_at"
  | R r ->
      if i < 0 || i >= r.len then invalid_arg "Sorted_ivec.remove_at: index out of bounds";
      move_down r.data ~src:(i + 1) ~dst:i (r.len - i - 1);
      r.len <- r.len - 1

let add v x =
  match v with
  | (S _ | A _) as v -> frozen v "add"
  | R r ->
      (* Ascending arrivals (the bulk-load case) append without a search. *)
      let n = r.len in
      let i = if n = 0 || x > Array.unsafe_get r.data (n - 1) then n else index_geq v x in
      if i < n && Array.unsafe_get r.data i = x then false
      else begin
        insert_at v i x;
        true
      end

let remove v x =
  match v with
  | (S _ | A _) as v -> frozen v "remove"
  | R r ->
      let i = index_geq v x in
      if i < r.len && Array.unsafe_get r.data i = x then begin
        remove_at v i;
        true
      end
      else false

let check_strictly_increasing op a =
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) >= a.(i) then invalid_arg ("Sorted_ivec." ^ op ^ ": not strictly increasing")
  done

let of_sorted_array a =
  check_strictly_increasing "of_sorted_array" a;
  let n = Array.length a in
  R { data = (if n = 0 then Array.make 1 0 else Array.copy a); len = n }

let adopt_sorted a =
  check_strictly_increasing "adopt_sorted" a;
  let n = Array.length a in
  R { data = (if n = 0 then Array.make 1 0 else a); len = n }

let of_list l =
  let a = Array.of_list (List.sort_uniq compare l) in
  R { data = (if Array.length a = 0 then Array.make 1 0 else a); len = Array.length a }

let iter f = function
  | R r ->
      for i = 0 to r.len - 1 do
        f (Array.unsafe_get r.data i)
      done
  | A { arr; aoff; alen } ->
      for i = aoff to aoff + alen - 1 do
        f (Array.unsafe_get arr i)
      done
  | S { base; off; slen } -> Packed_ivec.iter_range f base ~lo:off ~hi:(off + slen)

let iter_from f v x =
  for i = index_geq v x to length v - 1 do
    f (unsafe_get v i)
  done

let fold f acc v =
  let acc = ref acc in
  iter (fun x -> acc := f !acc x) v;
  !acc

let to_array v =
  match v with
  | R r -> Array.sub r.data 0 r.len
  | A a -> Array.sub a.arr a.aoff a.alen
  | S _ ->
      let a = Array.make (length v) 0 in
      let i = ref 0 in
      iter
        (fun x ->
          Array.unsafe_set a !i x;
          incr i)
        v;
      a

let to_list v = Array.to_list (to_array v)

let choose_arbitrary v = if is_empty v then None else Some (unsafe_get v 0)

let subset a b =
  (* Two-pointer scan: both vectors are sorted, so a single pass decides. *)
  let na = length a and nb = length b in
  let rec loop i j =
    if i >= na then true
    else if j >= nb then false
    else
      let x = unsafe_get a i and y = unsafe_get b j in
      if x = y then loop (i + 1) (j + 1) else if x > y then loop i (j + 1) else false
  in
  na <= nb && loop 0 0

let equal a b =
  match (a, b) with
  | R ra, R rb ->
      ra.len = rb.len
      &&
      let rec loop i =
        i >= ra.len
        || (Array.unsafe_get ra.data i = Array.unsafe_get rb.data i && loop (i + 1))
      in
      loop 0
  | _ ->
      length a = length b
      &&
      let n = length a in
      let rec loop i = i >= n || (unsafe_get a i = unsafe_get b i && loop (i + 1)) in
      loop 0

let copy v =
  match v with
  | R r -> R { data = Array.copy r.data; len = r.len }
  | A _ | S _ ->
      let a = to_array v in
      R { data = (if Array.length a = 0 then Array.make 1 0 else a); len = length v }

let clear = function R r -> r.len <- 0 | (A _ | S _) as v -> frozen v "clear"

let memory_words = function
  | R r -> Array.length r.data + 1 + 3
  | A _ | S _ -> 4 (* header + base pointer + off + len; the stream is owned elsewhere *)

let shares a b =
  match (a, b) with
  | R _, R _ -> a == b
  | A x, A y -> x.arr == y.arr && x.aoff = y.aoff && x.alen = y.alen
  | S x, S y -> x.base == y.base && x.off = y.off && x.slen = y.slen
  | _ -> false

let pp ppf v =
  Format.fprintf ppf "[|%a|]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") Format.pp_print_int)
    (to_list v)

let check_invariant v =
  for i = 1 to length v - 1 do
    assert (unsafe_get v (i - 1) < unsafe_get v i)
  done

(* ------------------------------------------------------------------- *)
(* Streams and slices                                                  *)
(* ------------------------------------------------------------------- *)

let stream_of_array ?(kind = Packed) a =
  match kind with Raw -> Ints a | Packed -> Bits (Packed_ivec.of_array a)

let stream_length = function Ints a -> Array.length a | Bits b -> Packed_ivec.length b

let stream_kind = function Ints _ -> Raw | Bits _ -> Packed

let stream_get s i =
  match s with Ints a -> a.(i) | Bits b -> Packed_ivec.get b i

let stream_unsafe_get s i = match s with Ints a -> Array.unsafe_get a i | Bits b -> Packed_ivec.get b i

let stream_search_from s ~from ~hi x =
  if from < 0 || hi > stream_length s then
    invalid_arg
      (Printf.sprintf "Sorted_ivec.stream_search_from: [%d,%d) outside [0,%d)" from hi (stream_length s));
  if from >= hi then hi
  else if stream_unsafe_get s from >= x then from
  else begin
    let step = ref 1 in
    let lo = ref from in
    while !lo + !step < hi && stream_unsafe_get s (!lo + !step) < x do
      lo := !lo + !step;
      step := !step * 2
    done;
    let hi = ref (min hi (!lo + !step + 1)) in
    incr lo;
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if stream_unsafe_get s mid < x then lo := mid + 1 else hi := mid
    done;
    if !Telemetry.Config.enabled then Telemetry.Metrics.observe m_gallop_skip (!lo - from);
    !lo
  end

let stream_iter f s ~lo ~hi =
  if lo < 0 || hi > stream_length s then
    invalid_arg (Printf.sprintf "Sorted_ivec.stream_iter: [%d,%d) outside [0,%d)" lo hi (stream_length s));
  match s with
  | Ints a ->
      for i = lo to hi - 1 do
        f (Array.unsafe_get a i)
      done
  | Bits b -> Packed_ivec.iter_range f b ~lo ~hi

(* The CSR walk in one call: within this module [stream_get] on a raw
   stream is an inline array read, so a raw payload costs no call per
   cell and a packed one a single decode call. *)
let stream_push_runs f ~keys ~starts ?lens s ~lo ~hi =
  let n = ref 0 in
  let push key a b =
    if a < 0 || a > b || b > stream_length s then
      invalid_arg (Printf.sprintf "Sorted_ivec.stream_push_runs: [%d,%d) outside [0,%d)" a b (stream_length s));
    (match s with
    | Ints arr ->
        for i = a to b - 1 do
          f key (Array.unsafe_get arr i)
        done
    | Bits p ->
        for i = a to b - 1 do
          f key (Packed_ivec.get p i)
        done);
    n := !n + b - a
  in
  (match lens with
  | None ->
      let a = ref (if lo < hi then stream_get starts lo else 0) in
      for k = lo to hi - 1 do
        let b = stream_get starts (k + 1) in
        push (stream_get keys k) !a b;
        a := b
      done
  | Some l ->
      for k = lo to hi - 1 do
        let a = stream_get starts k in
        push (stream_get keys k) a (a + stream_get l k)
      done);
  !n

let slice s ~off ~len =
  let n = stream_length s in
  if off < 0 || len < 0 || off + len > n then
    invalid_arg (Printf.sprintf "Sorted_ivec.slice: [%d,%d) outside [0,%d)" off (off + len) n);
  match s with
  | Ints arr -> A { arr; aoff = off; alen = len }
  | Bits base -> S { base; off; slen = len }

(* The constructor block, then the payload: the array with its header,
   or the packed encoding. *)
let stream_memory_words = function
  | Ints a -> 2 + Array.length a + 1
  | Bits b -> 2 + Packed_ivec.memory_words b

let stream_validate = function Ints _ -> [] | Bits b -> Packed_ivec.validate b

let compress kind v =
  match (kind, v) with
  | Raw, R _ -> v
  | Raw, _ -> copy v
  | Packed, _ ->
      let a = to_array v in
      slice (stream_of_array a) ~off:0 ~len:(Array.length a)

let block_violations = function
  | R _ | A _ -> []
  | S { base; _ } -> Packed_ivec.validate base
