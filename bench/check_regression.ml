(* CI benchmark-regression gate.

   Runs the LU benchmark at --scale test for every protocol through
   bin/svm_run.exe --json, validates each report against the schema, and
   compares the headline counters (elapsed time, message count, update and
   protocol traffic, memory peak) against the checked-in BENCH_baseline.json
   within a relative tolerance. The simulation is deterministic, so the
   tolerance only absorbs intentional cost-model tweaks; real protocol
   regressions move these counters by far more.

   Usage:
     dune exec bench/check_regression.exe                    -- check
     dune exec bench/check_regression.exe -- --update        -- regenerate baseline
     options: --baseline FILE --exe PATH --tolerance F --app NAME --nodes N *)

open Cmdliner

type options = {
  baseline : string;
  exe : string;
  tolerance : float;
  app : string;
  nodes : int;
  update : bool;
}

let options =
  let baseline =
    Arg.(
      value & opt string "BENCH_baseline.json"
      & info [ "baseline" ] ~docv:"FILE" ~doc:"Baseline to check against or rewrite.")
  in
  let exe =
    Arg.(
      value
      & opt string "_build/default/bin/svm_run.exe"
      & info [ "exe" ] ~docv:"PATH" ~doc:"The $(b,svm_run) executable to drive.")
  in
  let tolerance =
    Arg.(
      value & opt float 0.05
      & info [ "tolerance" ] ~docv:"F" ~doc:"Allowed relative drift of each counter.")
  in
  let app_name =
    Arg.(value & opt string "lu" & info [ "app" ] ~docv:"NAME" ~doc:"Application.")
  in
  let nodes = Arg.(value & opt int 4 & info [ "nodes" ] ~docv:"N" ~doc:"Simulated nodes.") in
  let update =
    Arg.(value & flag & info [ "update" ] ~doc:"Rewrite the baseline instead of checking.")
  in
  let make baseline exe tolerance app nodes update =
    if not (tolerance >= 0.) then
      invalid_arg (Printf.sprintf "--tolerance must be >= 0 (got %g)" tolerance);
    if nodes < 1 then invalid_arg (Printf.sprintf "--nodes must be positive (got %d)" nodes);
    { baseline; exe; tolerance; app; nodes; update }
  in
  Term.(const make $ baseline $ exe $ tolerance $ app_name $ nodes $ update)

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run one protocol through the real CLI and return its headline counters. *)
let run_protocol o proto =
  let json_file = Filename.temp_file "svm_report_" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove json_file with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s --app %s --protocol %s --nodes %d --scale test --seed 42 --json %s"
          (Filename.quote o.exe) (Filename.quote o.app) proto o.nodes
          (Filename.quote json_file)
      in
      Printf.printf "  %-6s %s\n%!" proto cmd;
      let rc = Sys.command (cmd ^ " > /dev/null") in
      if rc <> 0 then failwith (Printf.sprintf "%s: svm_run exited with %d" proto rc);
      let json =
        match Obs.Json.of_string (read_file json_file) with
        | Ok j -> j
        | Error e -> failwith (Printf.sprintf "%s: report is not valid JSON: %s" proto e)
      in
      (match Svm.Report_json.validate json with
      | Ok () -> ()
      | Error e -> failwith (Printf.sprintf "%s: report fails schema validation: %s" proto e));
      match Svm.Report_json.headline json with
      | Some h -> h
      | None -> failwith (Printf.sprintf "%s: report has no headline counters" proto))

let headline_json h = Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) h)

let baseline_json o results =
  Obs.Json.Obj
    [
      ("schema_version", Obs.Json.Int Svm.Report_json.schema_version);
      ("app", Obs.Json.String o.app);
      ("nodes", Obs.Json.Int o.nodes);
      ("scale", Obs.Json.String "test");
      ("seed", Obs.Json.Int 42);
      ( "protocols",
        Obs.Json.Obj (List.map (fun (proto, h) -> (proto, headline_json h)) results) );
    ]

let write_baseline o results =
  let oc = open_out o.baseline in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Obs.Json.to_string_pretty (baseline_json o results));
      output_char oc '\n');
  Printf.printf "wrote %s (%d protocols)\n" o.baseline (List.length results)

let check_against_baseline o results =
  let base =
    match Obs.Json.of_string (read_file o.baseline) with
    | Ok j -> j
    | Error e -> failwith (Printf.sprintf "%s is not valid JSON: %s" o.baseline e)
  in
  let protocols =
    match Obs.Json.member "protocols" base with
    | Some p -> p
    | None -> failwith (Printf.sprintf "%s: missing \"protocols\" object" o.baseline)
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun (proto, h) ->
      match Obs.Json.member proto protocols with
      | None -> fail "%s: not in baseline (run with --update to add it)" proto
      | Some expected ->
          List.iter
            (fun (key, got) ->
              match Option.bind (Obs.Json.member key expected) Obs.Json.to_float with
              | None -> fail "%s.%s: missing from baseline" proto key
              | Some want ->
                  let drift =
                    if want = 0. then if got = 0. then 0. else infinity
                    else Float.abs (got -. want) /. Float.abs want
                  in
                  if drift > o.tolerance then
                    fail "%s.%s: %.6g vs baseline %.6g (drift %.2f%% > %.2f%%)" proto key got
                      want (drift *. 100.) (o.tolerance *. 100.))
            h)
    results;
  match List.rev !failures with
  | [] ->
      Printf.printf "benchmark regression gate: OK (%d protocols within %.1f%%)\n"
        (List.length results) (o.tolerance *. 100.)
  | fs ->
      List.iter (fun s -> Printf.eprintf "FAIL %s\n" s) fs;
      Printf.eprintf "benchmark regression gate: %d failure(s)\n" (List.length fs);
      exit 1

let main o =
  Printf.printf "benchmark regression gate: %s, %d nodes, scale test, seed 42\n" o.app o.nodes;
  let results =
    List.map (fun proto -> (proto, run_protocol o proto)) Svm.Config.protocol_strings
  in
  if o.update then write_baseline o results else check_against_baseline o results

let () =
  let doc = "Check the LU protocol counters against the committed baseline." in
  exit (Cli.eval (Cmd.v (Cmd.info "check_regression" ~doc) Term.(const main $ options)))
