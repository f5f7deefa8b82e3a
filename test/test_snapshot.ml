(* Tests for binary snapshots: roundtrips, id stability, corruption
   detection (failure injection on truncation and bit flips), and format
   edge cases. *)

open Hexa

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type id3 = Hexastore.id_triple = { s : int; p : int; o : int }

let t3 s p o = { s; p; o }

let with_tmp f =
  let path = Filename.temp_file "hexa_snapshot" ".snap" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let sample_store () =
  let open Rdf in
  let triples =
    [
      Triple.make (Term.iri "http://x/s1") (Term.iri "http://x/p1") (Term.iri "http://x/o1");
      Triple.make (Term.iri "http://x/s1") (Term.iri "http://x/p1") (Term.string_literal "plain lit");
      Triple.make (Term.iri "http://x/s1") (Term.iri "http://x/p2") (Term.literal ~lang:"fr" "été");
      Triple.make (Term.blank "b0") (Term.iri "http://x/p2") (Term.int_literal 42);
      Triple.make (Term.iri "http://x/s2") (Term.iri "http://x/p1")
        (Term.string_literal "tricky\"\\\n\tvalue");
    ]
  in
  Hexastore.of_triples triples

let same_contents a b =
  List.of_seq (Hexastore.lookup a Pattern.wildcard)
  = List.of_seq (Hexastore.lookup b Pattern.wildcard)

let test_roundtrip_basic () =
  with_tmp (fun path ->
      let h = sample_store () in
      Snapshot.save h path;
      let h' = Snapshot.load path in
      check_int "size" (Hexastore.size h) (Hexastore.size h');
      check_bool "identical triples (same ids)" true (same_contents h h');
      Hexastore.check_invariant h';
      (* Dictionary ids are positionally identical. *)
      check_int "dict size" (Dict.Term_dict.size (Hexastore.dict h))
        (Dict.Term_dict.size (Hexastore.dict h'));
      for id = 0 to Dict.Term_dict.size (Hexastore.dict h) - 1 do
        check_bool "term preserved" true
          (Rdf.Term.equal
             (Dict.Term_dict.decode_term (Hexastore.dict h) id)
             (Dict.Term_dict.decode_term (Hexastore.dict h') id))
      done)

let test_roundtrip_empty () =
  with_tmp (fun path ->
      let h = Hexastore.create () in
      Snapshot.save h path;
      let h' = Snapshot.load path in
      check_int "empty" 0 (Hexastore.size h'))

let test_roundtrip_dict_only_terms () =
  (* Terms interned but not used by any surviving triple keep their ids. *)
  with_tmp (fun path ->
      let h = Hexastore.create () in
      let d = Hexastore.dict h in
      let ghost = Dict.Term_dict.encode_term d (Rdf.Term.iri "http://x/ghost") in
      ignore
        (Hexastore.add h
           (Rdf.Triple.make (Rdf.Term.iri "http://x/s") (Rdf.Term.iri "http://x/p")
              (Rdf.Term.iri "http://x/o")));
      Snapshot.save h path;
      let h' = Snapshot.load path in
      check_bool "ghost term id preserved" true
        (Rdf.Term.equal
           (Dict.Term_dict.decode_term (Hexastore.dict h') ghost)
           (Rdf.Term.iri "http://x/ghost")))

let test_corruption_bad_magic () =
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "NOTASNAP-and-more-bytes";
      close_out oc;
      match Snapshot.load path with
      | exception Snapshot.Corrupt _ -> ()
      | _ -> Alcotest.fail "bad magic accepted")

let magic_probe = "HEXSNAP1"

let test_corruption_truncation () =
  with_tmp (fun path ->
      let h = sample_store () in
      Snapshot.save h path;
      let full = In_channel.with_open_bin path In_channel.input_all in
      (* Truncate at several points; every prefix must be rejected. *)
      List.iter
        (fun keep ->
          let oc = open_out_bin path in
          output_string oc (String.sub full 0 keep);
          close_out oc;
          match Snapshot.load path with
          | exception Snapshot.Corrupt _ -> ()
          | _ -> Alcotest.failf "truncation to %d bytes accepted" keep)
        [ 4; String.length magic_probe; String.length full / 2; String.length full - 1 ])

let test_corruption_bitflip () =
  with_tmp (fun path ->
      let h = sample_store () in
      Snapshot.save h path;
      let full = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
      (* Flip a byte in the middle of the payload: checksum must catch it
         (or decoding fails structurally — either way, Corrupt). *)
      let pos = Bytes.length full / 2 in
      Bytes.set full pos (Char.chr (Char.code (Bytes.get full pos) lxor 0x5a));
      let oc = open_out_bin path in
      output_bytes oc full;
      close_out oc;
      match Snapshot.load path with
      | exception Snapshot.Corrupt _ -> ()
      | _ -> Alcotest.fail "bit flip accepted")

let test_corruption_trailing_garbage () =
  with_tmp (fun path ->
      let h = sample_store () in
      Snapshot.save h path;
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "extra";
      close_out oc;
      match Snapshot.load path with
      | exception Snapshot.Corrupt _ -> ()
      | _ -> Alcotest.fail "trailing garbage accepted")

let gen_triple = QCheck.Gen.(map3 t3 (int_bound 20) (int_bound 8) (int_bound 25))

let prop_roundtrip =
  QCheck.Test.make ~name:"snapshot roundtrip over random stores" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_bound 150) gen_triple))
    (fun triples ->
      (* Give ids real term spellings by going through a dictionary. *)
      let h = Hexastore.create () in
      let d = Hexastore.dict h in
      List.iter
        (fun (tr : id3) ->
          let term k n = Rdf.Term.iri (Printf.sprintf "http://x/%c%d" k n) in
          ignore
            (Hexastore.add h
               (Rdf.Triple.make (term 's' tr.s) (term 'p' tr.p) (term 'o' tr.o))))
        triples;
      ignore d;
      with_tmp (fun path ->
          Snapshot.save h path;
          let h' = Snapshot.load path in
          Hexastore.size h = Hexastore.size h' && same_contents h h'))

let test_channel_api () =
  let h = sample_store () in
  let buf_path = Filename.temp_file "hexa_chan" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove buf_path)
    (fun () ->
      let oc = open_out_bin buf_path in
      Snapshot.save_channel h oc;
      close_out oc;
      let ic = open_in_bin buf_path in
      let h' = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> Snapshot.load_channel ic) in
      check_bool "channel roundtrip" true (same_contents h h'))

let prop_fuzz_never_crashes =
  (* Arbitrary bytes (with a valid magic prefix half the time) must be
     rejected with Corrupt — never a crash, never a bogus store. *)
  QCheck.Test.make ~name:"loader rejects arbitrary bytes with Corrupt" ~count:300
    (QCheck.make
       QCheck.Gen.(pair bool (string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 200)))
    )
    (fun (with_magic, junk) ->
      let data = if with_magic then "HEXSNAP1" ^ junk else junk in
      with_tmp (fun path ->
          let oc = open_out_bin path in
          output_string oc data;
          close_out oc;
          match Snapshot.load path with
          | exception Snapshot.Corrupt _ -> true
          | exception Invalid_argument _ -> false  (* would be a real bug *)
          | _h ->
              (* Astronomically unlikely: junk that checksums correctly.
                 Accept only if it decodes to an empty store. *)
              false))

(* --- delta-aware snapshots --------------------------------------------- *)

let file_contents path = In_channel.with_open_bin path In_channel.input_all

(* [save_delta] flushes pending work before writing, so a store saved
   mid-delta round-trips to the fully merged view, and an immediate
   re-save is byte-identical (nothing left to flush). *)
let test_delta_flush_on_save () =
  with_tmp (fun path ->
      let dl = Delta.of_base ~insert_threshold:1000 ~delete_threshold:1000 (sample_store ()) in
      let open Rdf in
      check_bool "buffered insert" true
        (Delta.add dl
           (Triple.make (Term.iri "http://x/s9") (Term.iri "http://x/p1") (Term.iri "http://x/o9")));
      check_bool "buffered delete" true
        (Delta.remove dl
           (Triple.make (Term.iri "http://x/s1") (Term.iri "http://x/p1") (Term.iri "http://x/o1")));
      check_bool "non-empty insert buffer" true (Delta.pending_inserts dl > 0);
      check_bool "non-empty delete set" true (Delta.pending_deletes dl > 0);
      let merged_before = List.of_seq (Delta.lookup dl Pattern.wildcard) in
      Snapshot.save_delta dl path;
      (* Saving drained the buffers into the base... *)
      check_int "nothing pending after save" 0
        (Delta.pending_inserts dl + Delta.pending_deletes dl);
      (* ...and the file holds exactly the merged view. *)
      let h' = Snapshot.load path in
      check_int "size" 5 (Hexastore.size h');
      check_bool "merged view saved" true
        (merged_before = List.of_seq (Hexastore.lookup h' Pattern.wildcard));
      Hexastore.check_invariant h';
      (* Re-saving the now-quiescent delta is byte-identical. *)
      let first = file_contents path in
      Snapshot.save_delta dl path;
      check_bool "re-save byte-identical" true (String.equal first (file_contents path)))

let test_delta_load_roundtrip () =
  with_tmp (fun path ->
      let dl = Delta.of_base (sample_store ()) in
      ignore
        (Delta.add dl
           (Rdf.Triple.make (Rdf.Term.iri "http://x/s9") (Rdf.Term.iri "http://x/p9")
              (Rdf.Term.iri "http://x/o9")));
      Snapshot.save_delta dl path;
      let dl' = Snapshot.load_delta ~insert_threshold:7 ~delete_threshold:5 path in
      check_int "threshold carried" 7 (Delta.insert_threshold dl');
      check_int "sizes agree" (Delta.size dl) (Delta.size dl');
      check_bool "contents agree" true
        (List.of_seq (Delta.lookup dl Pattern.wildcard)
        = List.of_seq (Delta.lookup dl' Pattern.wildcard));
      check_bool "loaded delta starts quiescent" true
        (Delta.pending_inserts dl' = 0 && Delta.pending_deletes dl' = 0))

(* --- compressed representations (PR 10) -------------------------------- *)

(* The exact triple set baked into [golden_v1_bytes] below. *)
let golden_triples () =
  List.concat_map
    (fun i ->
      let s = Rdf.Term.iri (Printf.sprintf "http://example.org/s%d" i) in
      [
        Rdf.Triple.make s
          (Rdf.Term.iri "http://example.org/type")
          (Rdf.Term.iri (Printf.sprintf "http://example.org/Class%d" (i mod 3)));
        Rdf.Triple.make s
          (Rdf.Term.iri "http://example.org/value")
          (Rdf.Term.literal (string_of_int (i * 7)));
      ])
    (List.init 40 Fun.id)

(* A HEXSNAP1 snapshot of [Hexastore.of_triples (golden_triples ())]:
   magic "HEXSNAP1" with no repr byte after it, then the varint
   dictionary and the delta-coded triples, then the FNV-1a-64 trailer
   over everything after the magic.  Produced by saving that store as
   HEXSNAP2, dropping the repr byte (0, raw) that follows the magic, and
   recomputing the trailer over the remaining payload — the version-1
   layout, which no writer in the library emits any more. *)
let golden_v1_bytes =
  "HEXSNAP1U\027<http://example.org/Class0>\025<http://example.org/type\
   >\023<http://example.org/s0>\003\"0\"\026<http://example.org/value>\
   \027<http://example.org/Class1>\023<http://example.org/s1>\003\"7\"\
   \027<http://example.org/Class2>\023<http://example.org/s2>\004\"14\"\
   \023<http://example.org/s3>\004\"21\"\023<http://example.org/s4>\004\
   \"28\"\023<http://example.org/s5>\004\"35\"\023<http://example.org/s\
   6>\004\"42\"\023<http://example.org/s7>\004\"49\"\023<http://example\
   .org/s8>\004\"56\"\023<http://example.org/s9>\004\"63\"\024<http://e\
   xample.org/s10>\004\"70\"\024<http://example.org/s11>\004\"77\"\024<\
   http://example.org/s12>\004\"84\"\024<http://example.org/s13>\004\"9\
   1\"\024<http://example.org/s14>\004\"98\"\024<http://example.org/s15\
   >\005\"105\"\024<http://example.org/s16>\005\"112\"\024<http://examp\
   le.org/s17>\005\"119\"\024<http://example.org/s18>\005\"126\"\024<ht\
   tp://example.org/s19>\005\"133\"\024<http://example.org/s20>\005\"14\
   0\"\024<http://example.org/s21>\005\"147\"\024<http://example.org/s2\
   2>\005\"154\"\024<http://example.org/s23>\005\"161\"\024<http://exam\
   ple.org/s24>\005\"168\"\024<http://example.org/s25>\005\"175\"\024<h\
   ttp://example.org/s26>\005\"182\"\024<http://example.org/s27>\005\"1\
   89\"\024<http://example.org/s28>\005\"196\"\024<http://example.org/s\
   29>\005\"203\"\024<http://example.org/s30>\005\"210\"\024<http://exa\
   mple.org/s31>\005\"217\"\024<http://example.org/s32>\005\"224\"\024<\
   http://example.org/s33>\005\"231\"\024<http://example.org/s34>\005\"\
   238\"\024<http://example.org/s35>\005\"245\"\024<http://example.org/\
   s36>\005\"252\"\024<http://example.org/s37>\005\"259\"\024<http://ex\
   ample.org/s38>\005\"266\"\024<http://example.org/s39>\005\"273\"P\
   \002\001\000\000\003\003\004\001\005\000\003\007\003\001\008\000\003\
   \010\002\001\000\000\003\012\002\001\005\000\003\014\002\001\008\000\
   \003\016\002\001\000\000\003\018\002\001\005\000\003\020\002\001\008\
   \000\003\022\002\001\000\000\003\024\002\001\005\000\003\026\002\001\
   \008\000\003\028\002\001\000\000\003\030\002\001\005\000\003 \002\
   \001\008\000\003\"\002\001\000\000\003$\002\001\005\000\003&\002\001\
   \008\000\003(\002\001\000\000\003*\002\001\005\000\003,\002\001\008\
   \000\003.\002\001\000\000\0030\002\001\005\000\0032\002\001\008\000\
   \0034\002\001\000\000\0036\002\001\005\000\0038\002\001\008\000\003:\
   \002\001\000\000\003<\002\001\005\000\003>\002\001\008\000\003@\002\
   \001\000\000\003B\002\001\005\000\003D\002\001\008\000\003F\002\001\
   \000\000\003H\002\001\005\000\003J\002\001\008\000\003L\002\001\000\
   \000\003N\002\001\005\000\003P\002\001\008\000\003R\002\001\000\000\
   \003T\222\183\224t\177x\016J"

let test_golden_v1_load () =
  (* A version-1 snapshot must keep loading: as a raw store, with the
     same ids the old writer assigned (positional dictionary). *)
  with_tmp @@ fun path ->
  Out_channel.with_open_bin path (fun oc -> output_string oc golden_v1_bytes);
  let h = Snapshot.load path in
  check_int "golden size" 80 (Hexastore.size h);
  Alcotest.(check string) "v1 loads as raw" "raw" (Hexastore.repr_name h);
  Hexastore.check_invariant h;
  let expected = Hexastore.of_triples (golden_triples ()) in
  check_bool "golden contents (same ids)" true (same_contents expected h);
  (* Re-saving upgrades the container format; the upgraded file still
     round-trips to the same store. *)
  with_tmp (fun path2 ->
      Snapshot.save h path2;
      let h2 = Snapshot.load path2 in
      check_bool "v1 -> v2 rewrite preserves contents" true (same_contents h h2))

(* A HEXSNAP2 snapshot of the same store, built raw: magic, repr byte 0,
   then the payload and trailer exactly as {!Snapshot.save} writes them.
   Pins the current format byte for byte. *)
let golden_v2_raw_bytes =
  "HEXSNAP2\000U\027<http://example.org/Class0>\025<http://example.org/t\
   ype>\023<http://example.org/s0>\003\"0\"\026<http://example.org/value\
   >\027<http://example.org/Class1>\023<http://example.org/s1>\003\"7\"\
   \027<http://example.org/Class2>\023<http://example.org/s2>\004\"14\"\
   \023<http://example.org/s3>\004\"21\"\023<http://example.org/s4>\004\
   \"28\"\023<http://example.org/s5>\004\"35\"\023<http://example.org/s6\
   >\004\"42\"\023<http://example.org/s7>\004\"49\"\023<http://example.o\
   rg/s8>\004\"56\"\023<http://example.org/s9>\004\"63\"\024<http://exam\
   ple.org/s10>\004\"70\"\024<http://example.org/s11>\004\"77\"\024<http\
   ://example.org/s12>\004\"84\"\024<http://example.org/s13>\004\"91\"\
   \024<http://example.org/s14>\004\"98\"\024<http://example.org/s15>\
   \005\"105\"\024<http://example.org/s16>\005\"112\"\024<http://example\
   .org/s17>\005\"119\"\024<http://example.org/s18>\005\"126\"\024<http:\
   //example.org/s19>\005\"133\"\024<http://example.org/s20>\005\"140\"\
   \024<http://example.org/s21>\005\"147\"\024<http://example.org/s22>\
   \005\"154\"\024<http://example.org/s23>\005\"161\"\024<http://example\
   .org/s24>\005\"168\"\024<http://example.org/s25>\005\"175\"\024<http:\
   //example.org/s26>\005\"182\"\024<http://example.org/s27>\005\"189\"\
   \024<http://example.org/s28>\005\"196\"\024<http://example.org/s29>\
   \005\"203\"\024<http://example.org/s30>\005\"210\"\024<http://example\
   .org/s31>\005\"217\"\024<http://example.org/s32>\005\"224\"\024<http:\
   //example.org/s33>\005\"231\"\024<http://example.org/s34>\005\"238\"\
   \024<http://example.org/s35>\005\"245\"\024<http://example.org/s36>\
   \005\"252\"\024<http://example.org/s37>\005\"259\"\024<http://example\
   .org/s38>\005\"266\"\024<http://example.org/s39>\005\"273\"P\002\001\
   \000\000\003\003\004\001\005\000\003\007\003\001\008\000\003\010\002\
   \001\000\000\003\012\002\001\005\000\003\014\002\001\008\000\003\016\
   \002\001\000\000\003\018\002\001\005\000\003\020\002\001\008\000\003\
   \022\002\001\000\000\003\024\002\001\005\000\003\026\002\001\008\000\
   \003\028\002\001\000\000\003\030\002\001\005\000\003 \002\001\008\000\
   \003\"\002\001\000\000\003$\002\001\005\000\003&\002\001\008\000\003(\
   \002\001\000\000\003*\002\001\005\000\003,\002\001\008\000\003.\002\
   \001\000\000\0030\002\001\005\000\0032\002\001\008\000\0034\002\001\
   \000\000\0036\002\001\005\000\0038\002\001\008\000\003:\002\001\000\
   \000\003<\002\001\005\000\003>\002\001\008\000\003@\002\001\000\000\
   \003B\002\001\005\000\003D\002\001\008\000\003F\002\001\000\000\003H\
   \002\001\005\000\003J\002\001\008\000\003L\002\001\000\000\003N\002\
   \001\005\000\003P\002\001\008\000\003R\002\001\000\000\003T\137x\233\
   \169R\019\009\144"

let raw_golden_store () =
  let h = Hexastore.create ~repr:Vectors.Sorted_ivec.Raw () in
  ignore (Hexastore.add_list h (golden_triples ()));
  h

let test_golden_v2_save () =
  with_tmp @@ fun path ->
  Snapshot.save (raw_golden_store ()) path;
  check_bool "save reproduces the golden HEXSNAP2 bytes" true
    (String.equal golden_v2_raw_bytes (file_contents path))

(* FNV-1a 64 over [s], the snapshot trailer's hash. *)
let fnv1a64 s =
  String.fold_left
    (fun h c -> Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
    0xcbf29ce484222325L s

(* [golden_v2_raw_bytes] with its repr byte set to [tag] and the trailer
   recomputed, so only the tag differs from a valid snapshot. *)
let with_repr_tag tag =
  let magic = "HEXSNAP2" in
  let rest = String.length golden_v2_raw_bytes - String.length magic - 9 in
  let payload =
    String.make 1 (Char.chr tag) ^ String.sub golden_v2_raw_bytes (String.length magic + 1) rest
  in
  let trailer = Bytes.create 8 in
  Bytes.set_int64_be trailer 0 (fnv1a64 payload);
  magic ^ payload ^ Bytes.to_string trailer

let test_legacy_delta_tag () =
  (* Tag 2 was written by the retired delta_varint codec; the payload is
     plain triples, so it loads as a packed store. *)
  with_tmp (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc (with_repr_tag 2));
      let h = Snapshot.load path in
      Alcotest.(check string) "tag 2 loads packed" "packed" (Hexastore.repr_name h);
      Hexastore.check_invariant h;
      check_bool "tag 2 contents (same ids)" true (same_contents (raw_golden_store ()) h));
  with_tmp (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc (with_repr_tag 3));
      match Snapshot.load path with
      | exception Snapshot.Corrupt _ -> ()
      | _ -> Alcotest.fail "unknown repr tag 3 accepted")

let compressed_sample kind =
  let h = Hexastore.create ~repr:kind () in
  List.iter (fun tr -> ignore (Hexastore.add h tr)) (golden_triples ());
  Hexastore.compress h;
  h

let test_compressed_roundtrip_bytes () =
  (* Saving a compressed store, loading it, and saving again must be
     byte-identical — the codec tag and the payload both survive. *)
  List.iter
    (fun kind ->
      let name = Vectors.Sorted_ivec.kind_name kind in
      with_tmp (fun p1 ->
          with_tmp (fun p2 ->
              let h = compressed_sample kind in
              Alcotest.(check string) (name ^ " store is compressed") name
                (Hexastore.repr_name h);
              Snapshot.save h p1;
              let h' = Snapshot.load p1 in
              Alcotest.(check string) (name ^ " survives the round trip") name
                (Hexastore.repr_name h');
              check_bool (name ^ " contents survive") true (same_contents h h');
              Hexastore.check_invariant h';
              Snapshot.save h' p2;
              check_bool (name ^ " re-save byte-identical") true
                (String.equal (file_contents p1) (file_contents p2)))))
    [ Vectors.Sorted_ivec.Packed ]

let test_codec_tag_in_checksum () =
  (* Corrupting the repr byte (right after the magic) must be caught. *)
  with_tmp (fun path ->
      let h = compressed_sample Vectors.Sorted_ivec.Packed in
      Snapshot.save h path;
      let full = Bytes.of_string (file_contents path) in
      let pos = String.length "HEXSNAP2" in
      Bytes.set full pos (Char.chr (Char.code (Bytes.get full pos) lxor 0x01));
      let oc = open_out_bin path in
      output_bytes oc full;
      close_out oc;
      match Snapshot.load path with
      | exception Snapshot.Corrupt _ -> ()
      | _ -> Alcotest.fail "flipped codec tag accepted")

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "snapshot"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "basic" `Quick test_roundtrip_basic;
          Alcotest.test_case "empty" `Quick test_roundtrip_empty;
          Alcotest.test_case "ghost_terms" `Quick test_roundtrip_dict_only_terms;
          Alcotest.test_case "channels" `Quick test_channel_api;
          Alcotest.test_case "delta_flush_on_save" `Quick test_delta_flush_on_save;
          Alcotest.test_case "delta_load" `Quick test_delta_load_roundtrip;
          qt prop_roundtrip;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "bad_magic" `Quick test_corruption_bad_magic;
          Alcotest.test_case "truncation" `Quick test_corruption_truncation;
          Alcotest.test_case "bitflip" `Quick test_corruption_bitflip;
          Alcotest.test_case "trailing" `Quick test_corruption_trailing_garbage;
          qt prop_fuzz_never_crashes;
        ] );
      ( "repr",
        [
          Alcotest.test_case "golden_v1_load" `Quick test_golden_v1_load;
          Alcotest.test_case "golden_v2_save" `Quick test_golden_v2_save;
          Alcotest.test_case "legacy_delta_tag" `Quick test_legacy_delta_tag;
          Alcotest.test_case "compressed_roundtrip_bytes" `Quick
            test_compressed_roundtrip_bytes;
          Alcotest.test_case "codec_tag_checksummed" `Quick test_codec_tag_in_checksum;
        ] );
    ]
