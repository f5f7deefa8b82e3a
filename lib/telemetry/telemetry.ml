module Config = Config
module Clock = Clock
module Json = Json
module Histogram = Histogram
module Metrics = Metrics
module Trace = Trace
module Profile = Profile
module Export = Export
module Monitor = Monitor

let enabled = Config.enabled

let activity_count = Config.activity_count

let with_enabled flag f =
  let saved = !Config.enabled in
  Config.enabled := flag;
  Fun.protect ~finally:(fun () -> Config.enabled := saved) f

let report ppf () =
  Format.fprintf ppf "@[<v>%a@,@,slow queries:@,%a@,recorder:@,%a@]" Metrics.pp_report ()
    Profile.pp_slow_log () Trace.pp ()

let to_json () =
  Json.Obj
    [
      ("metrics", Metrics.to_json ());
      ("events", Trace.to_json ());
      ("slow_queries", Profile.slow_log_to_json ());
    ]

let reset () =
  Metrics.reset_all ();
  Trace.clear ();
  Profile.clear ()
