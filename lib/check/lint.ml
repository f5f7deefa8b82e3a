module V = Violation
module L = Lexer

type rule =
  | Missing_mli
  | Obj_magic
  | Printf_in_lib
  | Catch_all
  | Raw_clock
  | Query_probe
  | Span_hygiene
  | Domain_unsafe_global
  | Repr_abstraction

let rule_name = function
  | Missing_mli -> "missing-mli"
  | Obj_magic -> "obj-magic"
  | Printf_in_lib -> "printf-in-lib"
  | Catch_all -> "catch-all"
  | Raw_clock -> "raw-clock"
  | Query_probe -> "query-probe"
  | Span_hygiene -> "span-hygiene"
  | Domain_unsafe_global -> "domain-unsafe-global"
  | Repr_abstraction -> "repr-abstraction"

(* PR 1's scanner had to assemble these patterns at runtime so the
   substring search would not flag this very file; the token scanner
   knows a string literal when it lexes one, so they can be written
   plainly. *)
let pats_printf = [ "Printf.printf"; "Format.printf"; "print_endline" ]
let pats_clock = [ "Unix.gettimeofday"; "Sys.time" ]
let pat_obj_magic = "Obj.magic"
let pat_query_probe = "Sorted_ivec.mem"

let pats_span =
  [
    "Trace.enter_span";
    "Trace.exit_span";
    "Telemetry.Trace.enter_span";
    "Telemetry.Trace.exit_span";
  ]

(* lib/telemetry wraps the system clock; everyone else must go through
   it (Telemetry.Clock), so tests can inject a deterministic source. *)
let clock_exempt path =
  let dir = Filename.dirname path in
  Filename.basename dir = "telemetry" || Filename.basename path = "telemetry"

(* The query-probe rule only applies to the query layer: point-probe
   membership tests there bypass the planner's merge/hash operators. *)
let query_scoped path = Filename.basename (Filename.dirname path) = "query"

(* The codec module is an implementation detail of the vectors layer:
   everyone else reads compressed data through the Sorted_ivec
   stream/slice API, which is what lets a representation swap leave the
   planner, executor and snapshot code untouched. *)
let pats_repr_codec = [ "Packed_ivec" ]
let vectors_scoped path = Filename.basename (Filename.dirname path) = "vectors"

let allow_marker rule = "lint: allow " ^ rule_name rule

(* --- telemetry ----------------------------------------------------------- *)

let c_files = Telemetry.Metrics.counter "check.lint.files"
let c_tokens = Telemetry.Metrics.counter "check.lint.tokens"

let c_violations =
  List.map
    (fun r -> (r, Telemetry.Metrics.counter ("check.lint.violations." ^ rule_name r)))
    [
      Missing_mli; Obj_magic; Printf_in_lib; Catch_all; Raw_clock; Query_probe;
      Span_hygiene; Domain_unsafe_global; Repr_abstraction;
    ]

let count_violation rule =
  match List.assoc_opt rule c_violations with
  | Some c -> Telemetry.Metrics.incr c
  | None -> ()

(* --- token-stream matching ----------------------------------------------- *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i acc = if i + m > n then List.rev acc
    else if String.sub s i m = sub then go (i + 1) (i :: acc)
    else go (i + 1) acc
  in
  go 0 []

let is_dot (tok : L.token) = tok.L.kind = L.Op && String.equal tok.L.text "."

(* Qualified-name occurrences: for each token that starts a dotted path
   (not itself a path suffix), the assembled path and the start token.
   Token boundaries make word boundaries exact — [Sys.timestamp] and
   [My_sys.time] are different tokens than [Sys]/[time]. *)
let path_hits (t : L.t) wanted =
  let toks = t.L.tokens in
  let hits = ref [] in
  Array.iteri
    (fun i (tok : L.token) ->
      match tok.L.kind with
      | L.Ident | L.Uident ->
          if not (i > 0 && is_dot toks.(i - 1)) then (
            match L.path_at t i with
            | Some (p, _) when List.mem p wanted -> hits := (p, tok) :: !hits
            | _ -> ())
      | _ -> ())
    toks;
  List.rev !hits

(* Any mention of a codec module name.  Unlike [path_hits] this keeps
   dot-preceded tokens, so a qualified [Vectors.Packed_ivec.get] is
   caught through its [Packed_ivec] component. *)
let codec_hits (t : L.t) =
  Array.to_list t.L.tokens
  |> List.filter (fun (tok : L.token) ->
         tok.L.kind = L.Uident && List.mem tok.L.text pats_repr_codec)

(* [with _ ->] possibly spanning lines; a named wildcard ([with _e ->])
   is a different token, and [with _ as e ->] has no arrow after the
   wildcard. *)
let catch_all_hits (t : L.t) =
  let toks = t.L.tokens in
  let n = Array.length toks in
  let next_code j =
    let j = ref j in
    while !j < n && toks.(!j).L.kind = L.Comment do
      incr j
    done;
    !j
  in
  let hits = ref [] in
  for i = 0 to n - 1 do
    if toks.(i).L.kind = L.Ident && String.equal toks.(i).L.text "with" then begin
      let j = next_code (i + 1) in
      if j < n && toks.(j).L.kind = L.Ident && String.equal toks.(j).L.text "_" then
        let k = next_code (j + 1) in
        if k < n && toks.(k).L.kind = L.Op && String.equal toks.(k).L.text "->" then
          hits := toks.(i) :: !hits
    end
  done;
  List.rev !hits

(* Lines carrying a waiver marker — counted only inside comment tokens,
   at the marker's exact line within multi-line comments.  (The PR 1
   scanner matched markers anywhere in the raw source, so a string
   literal could smuggle a waiver in.) *)
let marker_lines (t : L.t) marker =
  Array.to_list t.L.tokens
  |> List.concat_map (fun (tok : L.token) ->
         if tok.L.kind <> L.Comment then []
         else
           find_sub tok.L.text marker
           |> List.map (fun off ->
                  let before = String.sub tok.L.text 0 off in
                  tok.L.line
                  + String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 before))

(* --- rule driver ---------------------------------------------------------- *)

let violation ~path rule (tok : L.token) detail =
  count_violation rule;
  V.v V.Source ~path:(Printf.sprintf "%s:%d" path tok.L.line) "%s: %s" (rule_name rule) detail

let domain_safety_violations ~path (t : L.t) =
  let fr = Mutability.analyze_tokens ~path t in
  Mutability.unattested { Mutability.files = [ fr ] }
  |> List.map (fun (_, (g : Mutability.global)) ->
         count_violation Domain_unsafe_global;
         let detail =
           match g.Mutability.g_attestation with
           | None ->
               Printf.sprintf
                 "module-global mutable binding %s (%s) has no (* domain-safety: <class> — \
                  <reason> *) attestation; domains will share it"
                 g.Mutability.g_name g.Mutability.g_ctor
           | Some (cls, _) when Option.is_none (Mutability.class_of_string cls) ->
               Printf.sprintf
                 "domain-safety attestation on %s has unknown class %S (expected \
                  immutable-after-init | guarded | telemetry-gated | test-only | atomic | \
                  domain-sharded)"
                 g.Mutability.g_name cls
           | Some (cls, _) ->
               Printf.sprintf
                 "domain-safety attestation on %s needs a reason after the class %S"
                 g.Mutability.g_name cls
         in
         V.v V.Source
           ~path:(Printf.sprintf "%s:%d" path g.Mutability.g_line)
           "%s: %s" (rule_name Domain_unsafe_global) detail)

let scan_source ~path contents =
  let t = L.tokenize contents in
  Telemetry.Metrics.incr c_files;
  Telemetry.Metrics.add c_tokens (Array.length t.L.tokens);
  let of_hits rule detail hits = List.map (fun tok -> violation ~path rule tok detail) hits in
  of_hits Obj_magic "Obj.magic defeats the type system; no uses allowed in lib/"
      (List.map snd (path_hits t [ pat_obj_magic ]))
    @ List.concat_map
        (fun (p, tok) ->
          of_hits Printf_in_lib
            (p ^ " writes to stdout from library code; take a formatter instead")
            [ tok ])
        (path_hits t pats_printf)
    @ of_hits Catch_all "catch-all exception handler swallows every failure" (catch_all_hits t)
    @ (if clock_exempt path then []
       else
         List.concat_map
           (fun (p, tok) ->
             of_hits Raw_clock
               (p ^ " reads the system clock directly; use Telemetry.Clock so tests can \
                     inject time")
               [ tok ])
           (path_hits t pats_clock))
    @ (if not (query_scoped path) then []
       else
         let allowed = marker_lines t (allow_marker Query_probe) in
         path_hits t [ pat_query_probe ]
         |> List.filter (fun (_, (tok : L.token)) ->
                not (List.mem tok.L.line allowed || List.mem (tok.L.line - 1) allowed))
         |> List.map snd
         |> of_hits Query_probe
              (pat_query_probe
             ^ " is a point probe; query operators must join through the planner's \
                merge/hash kernels (annotate the line to waive)"))
    @ (if clock_exempt path then []
       else
         let allowed = marker_lines t (allow_marker Span_hygiene) in
         path_hits t pats_span
         |> List.filter (fun (_, (tok : L.token)) ->
                not (List.mem tok.L.line allowed || List.mem (tok.L.line - 1) allowed))
         |> List.concat_map (fun (p, tok) ->
                of_hits Span_hygiene
                  (p
                 ^ " is a manual span pair; use Trace.with_span so spans balance on every \
                    exit path (annotate the line to waive a resource-lifetime span)")
                  [ tok ]))
    @ (if vectors_scoped path then []
       else
         let allowed = marker_lines t (allow_marker Repr_abstraction) in
         codec_hits t
         |> List.filter (fun (tok : L.token) ->
                not (List.mem tok.L.line allowed || List.mem (tok.L.line - 1) allowed))
         |> of_hits Repr_abstraction
              "codec module addressed outside lib/vectors; read compressed data through \
               the Sorted_ivec stream/slice API (annotate the line to waive)")
  @ (if Filename.check_suffix path ".mli" then [] else domain_safety_violations ~path t)

(* --- directory walking -------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let hidden name = String.length name = 0 || name.[0] = '.' || name.[0] = '_'

let rec scan_dir dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> [ V.v V.Source ~path:dir "unreadable directory: %s" msg ]
  | entries ->
      Array.sort compare entries;
      Array.to_list entries
      |> List.concat_map (fun name ->
             if hidden name then []
             else
               let path = Filename.concat dir name in
               if Sys.is_directory path then scan_dir path
               else if Filename.check_suffix name ".ml" then
                 let missing =
                   if Sys.file_exists (path ^ "i") then []
                   else begin
                     count_violation Missing_mli;
                     [
                       V.v V.Source ~path "%s: %s has no interface (%si missing)"
                         (rule_name Missing_mli) name name;
                     ]
                   end
                 in
                 missing @ scan_source ~path (read_file path)
               else if Filename.check_suffix name ".mli" then scan_source ~path (read_file path)
               else [])
