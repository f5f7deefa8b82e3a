exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

(* Format 2 (PR 10) adds one representation byte right after the magic
   — inside the checksum — recording the store's configured codec so a
   compressed store round-trips byte-identically (same tag out, same
   tag back in, recompression on load).  Format-1 blobs still load, as
   raw stores; tag 2, written by a since-retired delta codec over the
   same plain-triple payload, loads as packed. *)
let magic = "HEXSNAP2"
let magic_v1 = "HEXSNAP1"

let repr_tag = function Vectors.Sorted_ivec.Raw -> 0 | Vectors.Sorted_ivec.Packed -> 1

let repr_of_tag = function
  | 0 -> Vectors.Sorted_ivec.Raw
  | 1 | 2 -> Vectors.Sorted_ivec.Packed
  | b -> corrupt "unknown representation tag %d" b

(* --- FNV-1a 64-bit, over the payload bytes ---------------------------- *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_update h byte =
  Int64.mul (Int64.logxor h (Int64.of_int (byte land 0xff))) fnv_prime

let fnv_prefix s len =
  let h = ref fnv_offset in
  for i = 0 to len - 1 do
    h := fnv_update !h (Char.code (String.unsafe_get s i))
  done;
  !h

(* --- payload encoding and decoding ------------------------------------ *)

let write_varint buf n =
  if n < 0 then invalid_arg "Snapshot.write_varint: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_uint8 buf n
    else begin
      Buffer.add_uint8 buf (0x80 lor (n land 0x7f));
      go (n lsr 7)
    end
  in
  go n

(* Both directions work on the payload in memory: the saver encodes it
   into a buffer and the loader reads everything after the magic in one
   block, so each side hashes it with one {!fnv_prefix} loop. *)
type source = {
  buf : string;
  mutable pos : int;
}

let read_byte src =
  if src.pos >= String.length src.buf then corrupt "truncated snapshot";
  let c = String.unsafe_get src.buf src.pos in
  src.pos <- src.pos + 1;
  Char.code c

(* A corrupt length field must fail as [Corrupt], not as an attempted
   multi-gigabyte allocation: no declared size can exceed the bytes that
   are actually left. *)
let remaining src = String.length src.buf - src.pos

let check_size src n what =
  if n < 0 || n > remaining src then corrupt "declared %s exceeds snapshot size" what

(* [n] items of at least [each] bytes: divided, not multiplied, so a
   huge count cannot wrap around to a small product. *)
let check_count src n ~each what =
  if n < 0 || n > remaining src / each then corrupt "declared %s exceeds snapshot size" what

let read_string src n =
  check_size src n "string length";
  let s = String.sub src.buf src.pos n in
  src.pos <- src.pos + n;
  s

(* Every field is a non-negative int: a varint whose bits reach the
   sign bit is corrupt, so no decoded delta can step backwards. *)
let read_varint src =
  let rec go shift acc =
    if shift > 62 then corrupt "varint overflow";
    let b = read_byte src in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if acc < 0 then corrupt "varint overflow";
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

(* --- save -------------------------------------------------------------- *)

let save_channel h oc =
  let buf = Buffer.create 4096 in
  Buffer.add_uint8 buf (repr_tag (Hexastore.repr h));
  let dict = Hexastore.dict h in
  let n_terms = Dict.Term_dict.size dict in
  write_varint buf n_terms;
  for id = 0 to n_terms - 1 do
    let spelling = Dict.Term_dict.spelling dict id in
    write_varint buf (String.length spelling);
    Buffer.add_string buf spelling
  done;
  write_varint buf (Hexastore.size h);
  (* The full scan is pushed in (s, p, o) order — exactly the
     delta-friendly order — with no record per triple.  Before the
     first triple the previous one reads (0, 0, 0), so the first
     triple's deltas are its absolute ids. *)
  let ps = ref 0 and pp = ref 0 and po = ref 0 in
  Hexastore.iter h Pattern.wildcard (fun s p o ->
      let ds = s - !ps in
      let dp = if ds > 0 then p else p - !pp in
      let dob = if ds > 0 || dp > 0 then o else o - !po in
      write_varint buf ds;
      write_varint buf dp;
      write_varint buf dob;
      ps := s;
      pp := p;
      po := o);
  (* Trailer: the hash of everything after the magic, big-endian. *)
  let payload = Buffer.contents buf in
  Buffer.add_int64_be buf (fnv_prefix payload (String.length payload));
  output_string oc magic;
  Buffer.output_buffer oc buf

let save h path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     save_channel h oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     Sys.remove tmp;
     raise e);
  Sys.rename tmp path;
  Telemetry.Trace.emit (Telemetry.Trace.Snapshot_save { path; triples = Hexastore.size h })

(* --- load -------------------------------------------------------------- *)

let load_channel ic =
  let got = try really_input_string ic (String.length magic) with End_of_file -> "" in
  if got <> magic && got <> magic_v1 then corrupt "bad magic (not a Hexastore snapshot)";
  let src = { buf = In_channel.input_all ic; pos = 0 } in
  (* Format 1 predates representation tags: such blobs are raw. *)
  let repr = if got = magic then repr_of_tag (read_byte src) else Vectors.Sorted_ivec.Raw in
  let n_terms = read_varint src in
  (* Each term costs at least 2 bytes (length varint + 1 char), so the
     checked count also bounds the dictionary's initial size. *)
  check_count src n_terms ~each:2 "term count";
  let dict = Dict.Term_dict.create ~initial_size:n_terms () in
  for expected_id = 0 to n_terms - 1 do
    let len = read_varint src in
    let spelling = read_string src len in
    (* Checked, not parsed: a canonical spelling is its own key, and
       only canonical spellings re-save byte for byte. *)
    let id =
      try Dict.Term_dict.encode_spelling dict spelling
      with Invalid_argument msg -> corrupt "bad term %d: %s" expected_id msg
    in
    if id <> expected_id then corrupt "duplicate term spelling at id %d" expected_id
  done;
  let n_triples = read_varint src in
  (* Each triple costs at least 3 varint bytes. *)
  check_count src n_triples ~each:3 "triple count";
  (* Straight into (s, p, o) columns.  Deltas are non-negative, so the
     triples can only ascend; an all-zero delta after the first triple
     is the one way to repeat one, and the only order check needed. *)
  let s = Array.make n_triples 0 and p = Array.make n_triples 0 and o = Array.make n_triples 0 in
  let ps = ref 0 and pp = ref 0 and po = ref 0 in
  for i = 0 to n_triples - 1 do
    let ds = read_varint src in
    let dp = read_varint src in
    let dob = read_varint src in
    if i > 0 && ds = 0 && dp = 0 && dob = 0 then corrupt "triple %d repeats its predecessor" i;
    let ts = !ps + ds in
    let tp = if ds > 0 then dp else !pp + dp in
    let t_o = if ds > 0 || dp > 0 then dob else !po + dob in
    if ts >= n_terms || tp >= n_terms || t_o >= n_terms || ts < 0 || tp < 0 || t_o < 0 then
      corrupt "triple %d references unknown id" i;
    s.(i) <- ts;
    p.(i) <- tp;
    o.(i) <- t_o;
    ps := ts;
    pp := tp;
    po := t_o
  done;
  let payload_len = src.pos in
  if remaining src < 8 then corrupt "missing checksum";
  let stored_hash = String.get_int64_be src.buf payload_len in
  if not (Int64.equal stored_hash (fnv_prefix src.buf payload_len)) then
    corrupt "checksum mismatch";
  if remaining src > 8 then corrupt "trailing bytes after checksum";
  Hexastore.of_sorted_columns ~dict ~repr ~s ~p ~o ()

let load path =
  let ic = open_in_bin path in
  let h = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> load_channel ic) in
  Telemetry.Trace.emit (Telemetry.Trace.Snapshot_load { path; triples = Hexastore.size h });
  h

(* Delta-fronted stores persist flush-on-save: the snapshot format only
   knows the six-ordering base image, so pending buffers are drained
   into it first.  Saving is therefore canonicalising — re-saving the
   loaded store produces byte-identical output. *)

let save_delta d path =
  Delta.flush d;
  save (Delta.base d) path

let load_delta ?insert_threshold ?delete_threshold path =
  Delta.of_base ?insert_threshold ?delete_threshold (load path)
