(* Telemetry: per-kernel call counters plus shared input/output size
   histograms.  [note] is one flag read when telemetry is off. *)
let m_intersect = Telemetry.Metrics.counter "vectors.merge.intersect.calls"
let m_union = Telemetry.Metrics.counter "vectors.merge.union.calls"
let m_diff = Telemetry.Metrics.counter "vectors.merge.diff.calls"
let m_join = Telemetry.Metrics.counter "vectors.merge.merge_join.calls"
let m_input = Telemetry.Metrics.histogram "vectors.merge.input_keys"
let m_output = Telemetry.Metrics.histogram "vectors.merge.output_keys"

let note kernel ~input ~output =
  if !Telemetry.Config.enabled then begin
    Telemetry.Metrics.incr kernel;
    Telemetry.Metrics.observe m_input input;
    Telemetry.Metrics.observe m_output output
  end

let intersect a b =
  let na = Sorted_ivec.length a and nb = Sorted_ivec.length b in
  let out = Sorted_ivec.create ~capacity:(min na nb |> max 1) () in
  let i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let x = Sorted_ivec.get a !i and y = Sorted_ivec.get b !j in
    if x = y then begin
      ignore (Sorted_ivec.add out x);
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  note m_intersect ~input:(na + nb) ~output:(Sorted_ivec.length out);
  out

let intersect_arrays a b =
  let na = Array.length a and nb = Array.length b in
  let out = Dynarray_int.create ~capacity:(max 1 (min na nb)) () in
  let i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      Dynarray_int.push out x;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  Dynarray_int.to_array out

let intersect_count a b =
  let na = Sorted_ivec.length a and nb = Sorted_ivec.length b in
  let rec loop i j acc =
    if i >= na || j >= nb then acc
    else
      let x = Sorted_ivec.get a i and y = Sorted_ivec.get b j in
      if x = y then loop (i + 1) (j + 1) (acc + 1)
      else if x < y then loop (i + 1) j acc
      else loop i (j + 1) acc
  in
  loop 0 0 0

let intersect_count_adaptive a b =
  let small, large =
    if Sorted_ivec.length a <= Sorted_ivec.length b then (a, b) else (b, a)
  in
  let ns = Sorted_ivec.length small and nl = Sorted_ivec.length large in
  if ns = 0 then 0
  else if nl / (ns + 1) < 16 then intersect_count a b
  else begin
    (* Gallop each element of the smaller operand forward through the
       larger one; the cursor is monotone so total work is
       O(ns log(nl/ns)). *)
    let count = ref 0 in
    let cursor = ref 0 in
    Sorted_ivec.iter
      (fun x ->
        let lo = Sorted_ivec.search_from large ~from:!cursor x in
        cursor := lo;
        if lo < nl && Sorted_ivec.get large lo = x then incr count)
      small;
    !count
  end

let intersect_gallop small large =
  let small, large =
    if Sorted_ivec.length small <= Sorted_ivec.length large then (small, large)
    else (large, small)
  in
  let out = Sorted_ivec.create ~capacity:(max 1 (Sorted_ivec.length small)) () in
  (* Each probe seeks forward from the previous hit, so the scan over
     [large] is monotone even though individual probes are logarithmic. *)
  let cursor = ref 0 in
  let nl = Sorted_ivec.length large in
  Sorted_ivec.iter
    (fun x ->
      let lo = Sorted_ivec.search_from large ~from:!cursor x in
      cursor := lo;
      if lo < nl && Sorted_ivec.get large lo = x then ignore (Sorted_ivec.add out x))
    small;
  note m_intersect
    ~input:(Sorted_ivec.length small + nl)
    ~output:(Sorted_ivec.length out);
  out

let union a b =
  let na = Sorted_ivec.length a and nb = Sorted_ivec.length b in
  let out = Sorted_ivec.create ~capacity:(max 1 (na + nb)) () in
  let i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let x = Sorted_ivec.get a !i and y = Sorted_ivec.get b !j in
    if x = y then begin
      ignore (Sorted_ivec.add out x);
      incr i;
      incr j
    end
    else if x < y then begin
      ignore (Sorted_ivec.add out x);
      incr i
    end
    else begin
      ignore (Sorted_ivec.add out y);
      incr j
    end
  done;
  while !i < na do
    ignore (Sorted_ivec.add out (Sorted_ivec.get a !i));
    incr i
  done;
  while !j < nb do
    ignore (Sorted_ivec.add out (Sorted_ivec.get b !j));
    incr j
  done;
  note m_union ~input:(na + nb) ~output:(Sorted_ivec.length out);
  out

let union_many vs =
  (* Tournament of pairwise merges keeps the total work O(n log k) instead
     of the O(nk) a left fold would cost. *)
  let rec round = function
    | [] -> Sorted_ivec.create ()
    | [ v ] -> v
    | vs ->
        let rec pair = function
          | a :: b :: rest -> union a b :: pair rest
          | rest -> rest
        in
        round (pair vs)
  in
  round vs

let diff a b =
  let na = Sorted_ivec.length a and nb = Sorted_ivec.length b in
  let out = Sorted_ivec.create ~capacity:(max 1 na) () in
  let i = ref 0 and j = ref 0 in
  while !i < na do
    let x = Sorted_ivec.get a !i in
    while !j < nb && Sorted_ivec.get b !j < x do
      incr j
    done;
    if not (!j < nb && Sorted_ivec.get b !j = x) then ignore (Sorted_ivec.add out x);
    incr i
  done;
  note m_diff ~input:(na + nb) ~output:(Sorted_ivec.length out);
  out

let merge_join f a b =
  let na = Sorted_ivec.length a and nb = Sorted_ivec.length b in
  let i = ref 0 and j = ref 0 in
  let hits = ref 0 in
  while !i < na && !j < nb do
    let x = Sorted_ivec.get a !i and y = Sorted_ivec.get b !j in
    if x = y then begin
      f x;
      incr hits;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  note m_join ~input:(na + nb) ~output:!hits

let merge_join_gallop f a b =
  (* Leapfrog variant: whichever side is behind gallops forward to the
     other's current value, so long mismatching runs cost log(run)
     instead of run.  Degrades gracefully to the linear kernel on dense
     overlap (the first gallop step is a plain +1 probe). *)
  let na = Sorted_ivec.length a and nb = Sorted_ivec.length b in
  let hits = ref 0 in
  let rec loop i j =
    if i < na && j < nb then begin
      let x = Sorted_ivec.get a i and y = Sorted_ivec.get b j in
      if x = y then begin
        f x;
        incr hits;
        loop (i + 1) (j + 1)
      end
      else if x < y then loop (Sorted_ivec.search_from a ~from:i y) j
      else loop i (Sorted_ivec.search_from b ~from:j x)
    end
  in
  loop 0 0;
  note m_join ~input:(na + nb) ~output:!hits

let is_strictly_ascending s =
  let rec loop prev s =
    match s () with
    | Seq.Nil -> true
    | Seq.Cons (x, rest) -> ( match prev with Some p when p >= x -> false | _ -> loop (Some x) rest)
  in
  loop None s

let of_unsorted l = Sorted_ivec.of_list l
