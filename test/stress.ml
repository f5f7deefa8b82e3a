(* CLI front-end for [Check.Concurrent.stress]: one writer domain
   staging/flushing/compacting a delta store against N reader domains
   pinning snapshots and validating query results.  Exits 1 when the
   run produced violations, so the [@stress] alias fails the build.

   Usage: stress [--readers N] [--rounds N] [--ops N] [--domains N] [--seed N] *)

module CC = Check.Concurrent

let () =
  let cfg = ref CC.default_stress in
  let quiet = ref false in
  let spec =
    [
      ( "--readers",
        Arg.Int (fun n -> cfg := { !cfg with CC.readers = n }),
        "N reader domains querying pinned snapshots (default 2)" );
      ( "--rounds",
        Arg.Int (fun n -> cfg := { !cfg with CC.rounds = n }),
        "N writer flush/compact rounds (default 4)" );
      ( "--ops",
        Arg.Int (fun n -> cfg := { !cfg with CC.ops_per_round = n }),
        "N random mutations per round (default 64)" );
      ( "--domains",
        Arg.Int (fun n -> cfg := { !cfg with CC.domains = n }),
        "N executor fan-out width (default 2)" );
      ( "--seed",
        Arg.Int (fun n -> cfg := { !cfg with CC.seed = n }),
        "N PRNG seed (default 42)" );
      ("--quiet", Arg.Set quiet, " only print on failure");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "stress [options]: race a delta-store writer against reader domains";
  let c = !cfg in
  let r = CC.stress c in
  if not !quiet then
    Printf.printf
      "stress: readers=%d domains=%d seed=%d | %d ops, %d flushes, %d compactions, %d level merges, %d migrations, %d queries, %d violations\n"
      c.CC.readers c.CC.domains c.CC.seed r.CC.ops r.CC.flushes r.CC.compactions
      r.CC.level_merges r.CC.migrations
      r.CC.queries
      (List.length r.CC.violations);
  if r.CC.violations <> [] then begin
    Format.printf "%a@." Check.Violation.pp_report r.CC.violations;
    exit 1
  end
