(* Rendering: a human table per workload and the one-line JSON result. *)

let correct (r : Measure.result) = r.Measure.failed = 0 && r.Measure.failures = []

let table (r : Measure.result) =
  let w = r.Measure.workload in
  let b = Buffer.create 1024 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "== %s (seed %d, config seed %d) ==" w.Workload.name w.Workload.seed w.Workload.config_seed;
  List.iter
    (fun (m : Measure.metric) ->
      line "  %-28s %18.6f %s" m.Measure.name m.Measure.value m.Measure.unit_)
    r.Measure.metrics;
  if r.Measure.saturated then
    List.iter
      (fun n -> line "  %-28s %18s" n "saturated")
      [ "serve_p50_ms"; "serve_p99_ms"; "serve_p999_ms" ];
  line "  ops attempted %d, failed %d" r.Measure.attempted r.Measure.failed;
  List.iter (fun n -> line "  note: %s" n) r.Measure.notes;
  List.iter (fun f -> line "  FAILED: %s" f) r.Measure.failures;
  line "fingerprint %s"
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("workload", Obs.Json.String w.Workload.name);
            ("seed", Obs.Json.Int w.Workload.seed);
            ("config_seed", Obs.Json.Int w.Workload.config_seed);
            ("sim", r.Measure.fingerprint);
          ]));
  Buffer.contents b

(* One workload: metrics by name. Several: names prefixed with the
   workload's. *)
let result_line results =
  let prefix (r : Measure.result) =
    match results with [ _ ] -> "" | _ -> r.Measure.workload.Workload.name ^ "."
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool (List.for_all correct results));
      ("attempted", Obs.Json.Int (sum (fun r -> r.Measure.attempted)));
      ("failed", Obs.Json.Int (sum (fun r -> r.Measure.failed)));
      ( "metrics",
        Obs.Json.Obj
          (List.concat_map
             (fun r ->
               List.map
                 (fun (m : Measure.metric) ->
                   ( prefix r ^ m.Measure.name,
                     Obs.Json.Obj
                       [
                         ("value", Obs.Json.Float m.Measure.value);
                         ("unit", Obs.Json.String m.Measure.unit_);
                       ] ))
                 r.Measure.metrics)
             results) );
    ]
