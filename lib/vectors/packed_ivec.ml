(* Frame-of-reference bit-packing, 128-entry blocks.

   Layout per block [b] over elements [128b, min (128(b+1)) n):
     mins.(b)    — frame of reference (block minimum)
     width of b  — one byte in [widths]; 0..56, or 64 for raw cells
     boffs.(b)   — byte offset of the block's first cell in [data]
   A width-[w] cell [j] lives at bit [j*w] past [boffs.(b)]; decoding
   reads the 64-bit little-endian window at byte [boffs.(b) + (j*w)/8]
   and extracts [w] bits at offset [(j*w) mod 7+1].  Since [w <= 56]
   and the in-byte offset is [<= 7], the cell always fits the window —
   widths that would need 57..63 bits are promoted to 64 (raw little-
   endian 8-byte cells holding the value itself, min unused).  [data]
   carries 8 trailing padding bytes so the window read at the last cell
   stays in bounds. *)

let block_size = 128

type t = {
  n : int;
  mins : int array;
  widths : Bytes.t; (* one byte per block *)
  boffs : int array; (* nb + 1: per-block data offset, last = payload end *)
  data : Bytes.t; (* packed cells + 8 padding bytes *)
}

let bits_needed r =
  let rec go w v = if v = 0 then w else go (w + 1) (v lsr 1) in
  go 0 r

let block_bytes ~width ~count =
  if width = 64 then count * 8 else (count * width + 7) / 8

let of_array a =
  let n = Array.length a in
  let nb = (n + block_size - 1) / block_size in
  let mins = Array.make (max nb 1) 0 in
  let widths = Bytes.make (max nb 1) '\000' in
  let boffs = Array.make (nb + 1) 0 in
  for b = 0 to nb - 1 do
    let lo = b * block_size in
    let hi = min n (lo + block_size) in
    let mn = ref a.(lo) and mx = ref a.(lo) in
    for i = lo + 1 to hi - 1 do
      let x = Array.unsafe_get a i in
      if x < !mn then mn := x;
      if x > !mx then mx := x
    done;
    let range = !mx - !mn in
    (* range < 0 means max - min overflowed the 63-bit int: raw cells. *)
    let w = if range < 0 then 64 else bits_needed range in
    let w = if w > 56 then 64 else w in
    mins.(b) <- !mn;
    Bytes.unsafe_set widths b (Char.unsafe_chr w);
    boffs.(b + 1) <- boffs.(b) + block_bytes ~width:w ~count:(hi - lo)
  done;
  let data = Bytes.make (boffs.(nb) + 8) '\000' in
  for b = 0 to nb - 1 do
    let lo = b * block_size in
    let hi = min n (lo + block_size) in
    let w = Char.code (Bytes.unsafe_get widths b) in
    if w = 64 then
      for i = lo to hi - 1 do
        Bytes.set_int64_le data (boffs.(b) + ((i - lo) * 8)) (Int64.of_int a.(i))
      done
    else if w > 0 then begin
      (* The cells gather in a register, each 8-byte window stored
         once: a store flushes the whole bytes and keeps the rest.  A
         window's bytes past the block are rewritten by the next block
         (or land in the padding). *)
      let mn = mins.(b) and pos = ref boffs.(b) and acc = ref 0 and nbits = ref 0 in
      for i = lo to hi - 1 do
        if !nbits + w > 62 then begin
          Bytes.set_int64_le data !pos (Int64.of_int !acc);
          let whole = !nbits lsr 3 in
          pos := !pos + whole;
          acc := !acc lsr (whole * 8);
          nbits := !nbits land 7
        end;
        acc := !acc lor ((Array.unsafe_get a i - mn) lsl !nbits);
        nbits := !nbits + w
      done;
      Bytes.set_int64_le data !pos (Int64.of_int !acc)
    end
  done;
  { n; mins; widths; boffs; data }

let length t = t.n

(* The window read as an [int] keeps its low 63 bits, and a cell ends
   by bit 62 (offset <= 7, width <= 56), so the extraction needs no
   [Int64] arithmetic. *)
let unsafe_get t i =
  let b = i lsr 7 in
  let w = Char.code (Bytes.unsafe_get t.widths b) in
  if w = 0 then Array.unsafe_get t.mins b
  else if w = 64 then
    Int64.to_int (Bytes.get_int64_le t.data (Array.unsafe_get t.boffs b + ((i land 127) * 8)))
  else
    let bit = (i land 127) * w in
    let word = Int64.to_int (Bytes.get_int64_le t.data (Array.unsafe_get t.boffs b + (bit lsr 3))) in
    Array.unsafe_get t.mins b + ((word lsr (bit land 7)) land ((1 lsl w) - 1))

let get t i =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Packed_ivec.get: index %d out of bounds [0,%d)" i t.n);
  unsafe_get t i

let iter_range f t ~lo ~hi =
  for i = max lo 0 to min hi t.n - 1 do
    f (unsafe_get t i)
  done

let iter f t = iter_range f t ~lo:0 ~hi:t.n

let to_array t = Array.init t.n (unsafe_get t)

let encoded_bytes t = t.boffs.(Array.length t.boffs - 1)

let bytes_words len = 1 + ((len + 8) / 8)

let memory_words t =
  1 + 5 (* record *)
  + (Array.length t.mins + 1)
  + (Array.length t.boffs + 1)
  + bytes_words (Bytes.length t.widths)
  + bytes_words (Bytes.length t.data)

let validate t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let nb = (t.n + block_size - 1) / block_size in
  if Array.length t.boffs <> nb + 1 then
    err "boffs length %d, expected %d" (Array.length t.boffs) (nb + 1);
  if Array.length t.mins < nb then err "mins length %d < %d blocks" (Array.length t.mins) nb;
  if Bytes.length t.widths < nb then
    err "widths length %d < %d blocks" (Bytes.length t.widths) nb;
  if !errs = [] then begin
    if t.boffs.(0) <> 0 then err "boffs.(0) = %d, expected 0" t.boffs.(0);
    for b = 0 to nb - 1 do
      let lo = b * block_size in
      let hi = min t.n (lo + block_size) in
      let w = Char.code (Bytes.get t.widths b) in
      if w > 56 && w <> 64 then err "block %d: invalid width %d" b w;
      let expect = t.boffs.(b) + block_bytes ~width:w ~count:(hi - lo) in
      if t.boffs.(b + 1) <> expect then
        err "block %d: boffs.(%d) = %d, expected %d" b (b + 1) t.boffs.(b + 1) expect;
      if w <> 64 then begin
        (* Frame tightness: the block minimum must be attained, and every
           cell must fit the declared width. *)
        let tight = ref false in
        for i = lo to hi - 1 do
          let v = unsafe_get t i in
          if v = t.mins.(b) then tight := true;
          let cell = v - t.mins.(b) in
          if cell < 0 || cell lsr w <> 0 then
            err "block %d: cell %d = %d outside width-%d frame at min %d" b (i - lo) v w
              t.mins.(b)
        done;
        if hi > lo && not !tight then err "block %d: min %d not attained" b t.mins.(b)
      end
    done;
    if Bytes.length t.data <> t.boffs.(nb) + 8 then
      err "data length %d, expected %d (+8 padding)" (Bytes.length t.data) (t.boffs.(nb) + 8)
  end;
  List.rev !errs
