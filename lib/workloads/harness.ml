let now () = Telemetry.Clock.now ()

let time ?(warmup = 1) ?(repeats = 3) f =
  for _ = 1 to warmup do
    ignore (f ())
  done;
  (* Calibrate a batch size so each timed sample spans at least ~1 ms,
     keeping micro-second queries above the clock's resolution. *)
  let t0 = now () in
  let calibration = f () in
  let once = now () -. t0 in
  let iters =
    if once >= 1e-3 then 1 else min 20_000 (max 1 (int_of_float (1e-3 /. Float.max once 1e-9)))
  in
  let samples = Array.make repeats 0. in
  let result = ref calibration in
  for i = 0 to repeats - 1 do
    let t0 = now () in
    for _ = 1 to iters do
      result := f ()
    done;
    samples.(i) <- (now () -. t0) /. float_of_int iters
  done;
  Array.sort compare samples;
  (samples.(repeats / 2), !result)

type sized_stores = {
  n_triples : int;
  stores : Stores.t list;
  dict : Dict.Term_dict.t;
}

let build_prefixes ~kinds ~sizes triples =
  let dict = Dict.Term_dict.create () in
  let encoded =
    Array.of_seq (Seq.map (Dict.Term_dict.encode_triple dict) triples)
  in
  let total = Array.length encoded in
  let sizes = List.sort_uniq compare (List.map (fun s -> min s total) sizes) in
  List.map
    (fun n ->
      let prefix = Array.sub encoded 0 n in
      let stores =
        List.map
          (fun kind ->
            let store = Stores.create ~dict kind in
            ignore (Stores.load store prefix);
            store)
          kinds
      in
      { n_triples = n; stores; dict })
    sizes

let hexastore stores = List.find_map (function Stores.Hexa h -> Some h | Stores.Partial _ -> None) stores

type point = {
  size : int;
  method_ : string;
  seconds : float;
}

let pp_series ~figure ~title ppf points =
  Format.fprintf ppf "# figure %s — %s@\n" figure title;
  Format.fprintf ppf "# triples  method  seconds@\n";
  List.iter
    (fun { size; method_; seconds } ->
      Format.fprintf ppf "%d %s %.3e@\n" size method_ seconds)
    points

let words_to_mb w = float_of_int (w * 8) /. (1024. *. 1024.)
