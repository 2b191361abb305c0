(* Command-line driver: run one benchmark application under one protocol on
   a simulated machine and print the measured report.

   Example:
     dune exec bin/svm_run.exe -- --app lu --protocol hlrc --nodes 32
     dune exec bin/svm_run.exe -- --app raytrace --protocol lrc --nodes 8 --trace *)

open Cmdliner

type opts = {
  app : string;
  nodes : int;
  trace : bool;
  breakdown : bool;
  profile : bool;
  metrics : bool;
  metrics_out : string option;
}

let run o (c : Cli.common) (k : Cli.run) =
  let app =
    (* --kv-* knobs patch the scale's default kvstore parameters; for any
       other app they are a mistake, not silently ignored. *)
    if String.lowercase_ascii o.app = Apps.Kvstore.name then
      Apps.Registry.kvstore_of_params (Cli.kvstore_params c)
    else begin
      if Cli.kv_given c then
        failwith
          (Printf.sprintf "--kv-* flags apply only to --app %s (got --app %s)"
             Apps.Kvstore.name o.app);
      match Apps.Registry.find o.app c.scale with
      | Some a -> a
      | None ->
          failwith
            (Printf.sprintf "unknown application %S (%s)" o.app
               (String.concat "|" Apps.Registry.names))
    end
  in
  (* --metrics / --metrics-out need the recorder on; default to a 1 ms
     cadence when --metrics-interval was not given. *)
  let metrics_interval =
    if c.metrics_interval > 0. || not (o.metrics || o.metrics_out <> None) then
      c.metrics_interval
    else 1000.0
  in
  let cfg =
    Cli.config ~trace_spans:o.profile { c with metrics_interval } k ~nprocs:o.nodes
  in
  let trace_fn =
    if o.trace then Some (fun t s -> Printf.printf "[%12.1f us] %s\n" t s) else None
  in
  let sink =
    if c.trace_out <> None || o.profile then
      Some (Obs.Trace.create_sink ~capacity:cfg.Svm.Config.trace_cap ())
    else None
  in
  let t0 = Unix.gettimeofday () in
  let r =
    try Svm.Runtime.run ?trace:trace_fn ?sink cfg (app.Apps.Registry.body ~verify:c.verify)
    with Svm.System.Deadlock dump ->
      Printf.eprintf "svm_run: the run cannot make progress\n%s\n" dump;
      exit 3
  in
  let wall = Unix.gettimeofday () -. t0 in
  let critical_path =
    match sink with
    | Some sink when o.profile -> Some (Obs.Critical_path.analyze sink)
    | _ -> None
  in
  let meta =
    {
      Svm.Report_json.rm_app = app.Apps.Registry.name;
      rm_scale = Apps.Registry.scale_name c.scale;
    }
  in
  (match c.json_out with
  | None -> ()
  | Some file -> Svm.Report_json.write ~meta ?critical_path ?trace:sink file r);
  (match (c.trace_out, sink) with
  | Some file, Some sink -> Obs.Export.write_file c.trace_format file sink
  | _ -> ());
  (match (o.metrics_out, r.Svm.Runtime.r_metrics) with
  | Some file, Some m -> Obs.Export.write_metrics_csv file m
  | _ -> ());
  Format.printf "application : %s (%s)@." app.Apps.Registry.name app.Apps.Registry.description;
  Format.printf "protocol    : %s, %d nodes@." (Svm.Config.protocol_name cfg.Svm.Config.protocol)
    o.nodes;
  Format.printf "elapsed     : %.3f simulated seconds (%.2f s wall, %d events)@."
    (r.Svm.Runtime.r_elapsed /. 1e6) wall r.Svm.Runtime.r_events;
  Format.printf "shared mem  : %d KB application, %d KB peak protocol (max node)@."
    (r.Svm.Runtime.r_shared_bytes / 1024)
    (Svm.Runtime.max_mem_peak r / 1024);
  Format.printf "traffic     : %d messages, %.2f MB updates, %.2f MB protocol@."
    (Svm.Runtime.total_messages r)
    (float_of_int (Svm.Runtime.total_update_bytes r) /. 1048576.0)
    (float_of_int (Svm.Runtime.total_protocol_bytes r) /. 1048576.0);
  (match r.Svm.Runtime.r_ops with
  | None -> ()
  | Some o ->
      let n = o.Svm.Runtime.or_gets + o.Svm.Runtime.or_puts + o.Svm.Runtime.or_txns in
      let throughput =
        if r.Svm.Runtime.r_elapsed > 0. then
          float_of_int n /. (r.Svm.Runtime.r_elapsed /. 1_000_000.)
        else 0.
      in
      Format.printf "serving     : %d ops (%d get / %d put / %d txn), %.0f ops/s@." n
        o.Svm.Runtime.or_gets o.Svm.Runtime.or_puts o.Svm.Runtime.or_txns throughput;
      let lats = o.Svm.Runtime.or_lats in
      let pct q = match Svm.Stats.quantile lats q with Some v -> v | None -> 0. in
      if Array.length lats > 0 then
        Format.printf "op latency  : p50 %.0f us, p99 %.0f us, max %.0f us@." (pct 0.5)
          (pct 0.99)
          lats.(Array.length lats - 1));
  if Svm.Config.chaos_enabled cfg then begin
    let sum field =
      Array.fold_left (fun acc n -> acc + field n.Svm.Runtime.nr_counters) 0 r.Svm.Runtime.r_nodes
    in
    Format.printf "chaos       : %d dropped, %d retransmitted, %d acks, %d duplicates discarded@."
      (sum (fun c -> c.Svm.Stats.msg_drops))
      (sum (fun c -> c.Svm.Stats.msg_retransmits))
      (sum (fun c -> c.Svm.Stats.msg_acks))
      (sum (fun c -> c.Svm.Stats.msg_dup_dropped));
    Format.printf "mem digest  : %016Lx@." r.Svm.Runtime.r_mem_digest
  end;
  (match Machine.Chaos.first_kill cfg.Svm.Config.chaos with
  | None -> ()
  | Some (victim, at) ->
      let sum field =
        Array.fold_left
          (fun acc n -> acc + field n.Svm.Runtime.nr_counters)
          0 r.Svm.Runtime.r_nodes
      in
      let stalls = r.Svm.Runtime.r_failover_stalls in
      Format.printf
        "failover    : node %d killed at %.0f us; %d page(s) failed over, %d message(s) to \
         dead peers@."
        victim at
        (sum (fun c -> c.Svm.Stats.failovers))
        (sum (fun c -> c.Svm.Stats.msg_peer_dead));
      if stalls <> [] then
        Format.printf "recovery    : %d re-routed fetch(es), max stall %.0f us@."
          (List.length stalls)
          (List.fold_left Float.max 0. stalls);
      Format.printf "mem digest  : %016Lx@." r.Svm.Runtime.r_mem_digest);
  if cfg.Svm.Config.detector = Svm.Config.Heartbeat then begin
    let sum field =
      Array.fold_left
        (fun acc n -> acc + field n.Svm.Runtime.nr_counters)
        0 r.Svm.Runtime.r_nodes
    in
    Format.printf
      "detector    : heartbeat every %.0f us, timeout %.0f us; %d suspicion(s), %d \
       refuted, %d fenced fetch(es)@."
      cfg.Svm.Config.hb_interval
      (Svm.Config.hb_timeout_effective cfg)
      (sum (fun c -> c.Svm.Stats.suspicions))
      (sum (fun c -> c.Svm.Stats.refutations))
      (sum (fun c -> c.Svm.Stats.fenced_fetches))
  end;
  if cfg.Svm.Config.replicas > 1 then begin
    let sum field =
      Array.fold_left
        (fun acc n -> acc + field n.Svm.Runtime.nr_counters)
        0 r.Svm.Runtime.r_nodes
    in
    Format.printf "replication : %d replicas (%s): %d updates, %d invals, %.2f MB@."
      cfg.Svm.Config.replicas
      (Svm.Config.repl_scheme_name cfg.Svm.Config.repl_scheme)
      (sum (fun c -> c.Svm.Stats.repl_updates))
      (sum (fun c -> c.Svm.Stats.repl_invals))
      (float_of_int (sum (fun c -> c.Svm.Stats.repl_bytes)) /. 1048576.0)
  end;
  if c.verify then Format.printf "verification: passed (results match the sequential reference)@.";
  (match r.Svm.Runtime.r_metrics with
  | Some m when o.metrics ->
      Format.printf "@.metrics     : %g us buckets, %d intervals@." (Obs.Metrics.interval m)
        (Obs.Metrics.buckets m);
      List.iter
        (fun (name, kind, _rows) ->
          match Obs.Metrics.series_total m name with
          | None -> ()
          | Some tot ->
              let label, value =
                match kind with
                | Obs.Metrics.Counter -> ("total", Array.fold_left ( +. ) 0. tot)
                | Obs.Metrics.Gauge ->
                    ("last", if Array.length tot = 0 then 0. else tot.(Array.length tot - 1))
              in
              Format.printf "  %-18s %s  %s %.0f@." name (Obs.Metrics.spark ~width:40 tot)
                label value)
        (Obs.Metrics.series m);
      Format.printf "@.  latency (us)           count       p50       p90       p99       max@.";
      List.iter
        (fun (name, h) ->
          let st = Obs.Metrics.histogram_stats h in
          let pct = function Some v -> Printf.sprintf "%9.0f" v | None -> "        -" in
          Format.printf "  %-20s %8d %s %s %s %9.0f@." name st.Obs.Metrics.hs_count
            (pct st.Obs.Metrics.hs_p50) (pct st.Obs.Metrics.hs_p90)
            (pct st.Obs.Metrics.hs_p99) st.Obs.Metrics.hs_max)
        (Obs.Metrics.histograms m);
      let heats = Obs.Metrics.heatmaps m in
      (match List.assoc_opt "page_faults" heats with
      | Some fh ->
          let by_heat =
            List.sort
              (fun (p1, v1) (p2, v2) -> if v1 = v2 then compare p1 p2 else compare v2 v1)
              (Obs.Metrics.heatmap_entries fh)
          in
          let top = List.filteri (fun i _ -> i < 5) by_heat in
          if top <> [] then begin
            Format.printf "@.  hot pages (page: faults/diffs@@home):";
            List.iter
              (fun (page, v) ->
                let cell name =
                  Option.bind (List.assoc_opt name heats) (fun hm ->
                      Obs.Metrics.heatmap_find hm page)
                in
                let diffs = Option.value ~default:0. (cell "page_diffs") in
                match cell "page_home" with
                | Some h ->
                    Format.printf " %d:%.0f/%.0f@@%d" page v diffs (int_of_float h)
                | None -> Format.printf " %d:%.0f/%.0f" page v diffs)
              top;
            Format.printf "@."
          end
      | None -> ())
  | _ -> ());
  (match (critical_path, sink) with
  | Some cp, Some sink ->
      Format.printf "@.%s" (Obs.Critical_path.render cp);
      if Obs.Trace.dropped sink > 0 then begin
        let detail =
          Obs.Trace.dropped_by_kind sink
          |> List.map (fun (k, n) -> Printf.sprintf "%s %d" k n)
          |> String.concat ", "
        in
        Format.printf
          "warning     : trace sink overflowed (%d events dropped: %s; raise --trace-cap)@."
          (Obs.Trace.dropped sink) detail
      end
  | _ -> ());
  if o.breakdown then begin
    Format.printf "@.per-node breakdowns:@.";
    Array.iter
      (fun n ->
        Format.printf "  node %2d: %10.0f us  %a@." n.Svm.Runtime.nr_id n.Svm.Runtime.nr_elapsed
          Svm.Stats.pp_breakdown n.Svm.Runtime.nr_breakdown)
      r.Svm.Runtime.r_nodes
  end

let opts =
  let open Term.Syntax in
  let+ app =
    let doc = "Application: " ^ String.concat ", " Apps.Registry.names ^ "." in
    Arg.(value & opt string "lu" & info [ "a"; "app" ] ~docv:"APP" ~doc)
  and+ nodes =
    let doc = "Number of nodes to simulate." in
    Arg.(value & opt int 8 & info [ "n"; "nodes" ] ~docv:"N" ~doc)
  and+ trace =
    let doc = "Print the protocol event trace." in
    Arg.(value & flag & info [ "t"; "trace" ] ~doc)
  and+ breakdown =
    let doc = "Print per-node time breakdowns." in
    Arg.(value & flag & info [ "b"; "breakdown" ] ~doc)
  and+ profile =
    let doc =
      "Record the causal layer (wait spans, message flows) and print the critical-path \
       blame table: which wait buckets, pages and locks the run's end-to-end time is \
       attributable to. Combine with --json / --trace-out to export the analysis and the \
       Perfetto trace."
    in
    Arg.(value & flag & info [ "profile" ] ~doc)
  and+ metrics =
    let doc =
      "Print the sampled-metrics summary: per-interval sparklines of every series, latency \
       histogram percentiles, and the hottest pages of the fault/diff heatmap. Implies \
       --metrics-interval 1000 unless one was given."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  and+ metrics_out =
    let doc =
      "Write the metrics time series to $(docv) as long-format CSV \
       (time_us,node,series,value; run-scope series use node -1). Implies \
       --metrics-interval 1000 unless one was given."
    in
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  { app; nodes; trace; breakdown; profile; metrics; metrics_out }

let cmd =
  let doc = "run a Splash-2-style benchmark on the simulated SVM system" in
  let info = Cmd.info "svm_run" ~version:"1.0" ~doc in
  Cmd.v info Term.(const run $ opts $ Cli.common $ Cli.run)

let () = exit (Cli.eval cmd)
