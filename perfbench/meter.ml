(* Clocks, latency samples and the in-memory span recorder. *)

(* Monotonic nanoseconds: update operations take a few microseconds,
   too close to the 1 us resolution of the wall clock. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Process CPU seconds, all domains: the gap between a stage's wall and
   CPU time is time the machine gave to someone else. *)
let cpu_s () = Sys.time ()

(* --- samples ---------------------------------------------------------- *)

type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len

(* Nearest-rank quantile of the values recorded at positions [lo, hi). *)
let quantile_range s ~lo ~hi q =
  let n = hi - lo in
  if n <= 0 then nan
  else begin
    let a = Array.sub s.data lo n in
    Array.sort compare a;
    a.(min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1 |> max 0))
  end

let median_of l =
  let s = samples () in
  List.iter (push s) l;
  quantile_range s ~lo:0 ~hi:s.len 0.5

(* --- spans ------------------------------------------------------------ *)

(* One span per layer call; children of an operation's root share its
   op id and name the root as parent.  Kept in growable int arrays and
   written out when the run ends. *)
type spans = {
  mutable op : int array;
  mutable parent : int array;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable n : int;
  names : (string, int) Hashtbl.t;
  mutable name_list : string list;  (** index order, reversed *)
}

let spans () =
  let z () = Array.make 4096 0 in
  { op = z (); parent = z (); name = z (); start = z (); stop = z (); n = 0;
    names = Hashtbl.create 16; name_list = [] }

let grow a n = let b = Array.make (2 * n) 0 in Array.blit a 0 b 0 n; b

let name_id t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length t.names in
      Hashtbl.add t.names s i;
      t.name_list <- s :: t.name_list;
      i

(* Opens a span and returns its id; [parent] is [-1] for a root. *)
let open_span t ~op ~parent name =
  if t.n = Array.length t.op then begin
    let n = t.n in
    t.op <- grow t.op n; t.parent <- grow t.parent n; t.name <- grow t.name n;
    t.start <- grow t.start n; t.stop <- grow t.stop n
  end;
  let i = t.n in
  t.n <- i + 1;
  t.op.(i) <- op;
  t.parent.(i) <- parent;
  t.name.(i) <- name_id t name;
  t.start.(i) <- now_ns ();
  i

let close_span t i = t.stop.(i) <- now_ns ()

let child t ~op ~parent name f =
  let i = open_span t ~op ~parent name in
  let r = f () in
  close_span t i;
  r

let names t = Array.of_list (List.rev t.name_list)

(* Self time per span name in ns: durations minus the children's. *)
let self_times t =
  let self = Array.init t.n (fun i -> t.stop.(i) - t.start.(i)) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.stop.(i) - t.start.(i))
  done;
  let k = Hashtbl.length t.names in
  let total = Array.make k 0 in
  for i = 0 to t.n - 1 do
    total.(t.name.(i)) <- total.(t.name.(i)) + self.(i)
  done;
  Array.to_list (Array.mapi (fun i name -> (name, total.(i))) (names t))

(* Spans written out: a ten-second loop of microsecond reads records
   millions. *)
let written_spans = 100_000

(* The first [written_spans] spans, as tab-separated lines. *)
let write t path =
  let names = names t in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "op\tspan\tparent\tname\tstart_ns\tdur_ns\n";
      let base = if t.n > 0 then t.start.(0) else 0 in
      for i = 0 to min t.n written_spans - 1 do
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" t.op.(i) i t.parent.(i) names.(t.name.(i))
          (t.start.(i) - base) (t.stop.(i) - t.start.(i))
      done)
