(* perfbench: the repository benchmark. See NOTES.md.

   main.exe [--workload NAME|all] [--seed N] [--config-seed N]
            [--seconds S] [--trace 0|1]

   Prints each workload's metrics by name with unit, then its simulated
   fingerprint, and as the last line one JSON object
   {correct, attempted, failed, metrics}. Exits 1 on any correctness
   failure and 3 when a fixed-rate serving run is saturated. *)

open Perfbench

let () =
  let workload = ref "all" and seed = ref Workload.default_seed and config_seed = ref None in
  let seconds = ref 10. and trace = ref 0 in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME  one of the workloads, or all (default)");
      ("--seed", Arg.Set_int seed, "N  input seed: LU matrix, traffic plan (default 1)");
      ( "--config-seed",
        Arg.Int (fun n -> config_seed := Some n),
        "N  config and chaos-plan seed (default: derived from --seed)" );
      ("--seconds", Arg.Set_float seconds, "S  measuring time per workload (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  1 = traced run, per-layer metrics");
    ]
  in
  let usage = "main.exe [options]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let names = if !workload = "all" then Workload.names else [ !workload ] in
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if not (!seconds > 0.) then fail "--seconds must be positive";
  let workloads =
    try List.map (fun n -> Workload.make ?config_seed:!config_seed n ~seed:!seed) names
    with Invalid_argument msg -> fail msg
  in
  let results =
    List.map
      (fun (w : Workload.t) ->
        Spans.with_ w.Workload.name (fun () ->
            if !trace = 1 then Measure.per_layer w else Measure.end_to_end ~seconds:!seconds w))
      workloads
  in
  List.iter (fun r -> print_string (Report.table r)) results;
  if !trace = 1 then begin
    let name = String.concat "+" names in
    let dir = "perfbench/out" in
    let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.json" name !seed) in
    (try
       if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
       Spans.write path;
       Printf.printf "host spans: %d written to %s\n" (Spans.count ()) path
     with Sys_error e -> fail ("cannot write spans: " ^ e))
  end;
  print_endline (Obs.Json.to_string (Report.result_line results));
  if not (List.for_all Report.correct results) then exit 1;
  if List.exists (fun (r : Measure.result) -> r.Measure.saturated) results then exit 3
