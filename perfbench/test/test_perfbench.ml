(* The benchmark's own tests, at test scale. *)

open Perfbench

let test_scale = Workload.Test

let metric (r : Measure.result) name =
  match List.find_opt (fun (m : Measure.metric) -> m.Measure.name = name) r.Measure.metrics with
  | Some m -> m.Measure.value
  | None -> Alcotest.failf "metric %s missing" name

let direct (w : Workload.t) = Svm.Runtime.run w.Workload.cfg (w.Workload.body ~verify:false)

let close = Alcotest.float 1e-9

(* Extracted metrics equal the report values they derive from: means over
   the seed's plans for sim_*, pooled latencies for serve_*. *)
let test_end_to_end_from_report name () =
  let w = Workload.make ~scale:test_scale name ~seed:5 in
  let res = Measure.end_to_end ~scale:test_scale ~seconds:0.01 w in
  Alcotest.(check bool) "correct" true (Report.correct res);
  let rs =
    List.init (Workload.plans ~scale:test_scale name) (fun plan ->
        direct (Workload.make ~scale:test_scale ~plan name ~seed:5))
  in
  let mean f = List.fold_left (fun a r -> a +. f r) 0. rs /. float_of_int (List.length rs) in
  Alcotest.check close "sim_elapsed_s"
    (mean (fun r -> r.Svm.Runtime.r_elapsed) *. 1e-6)
    (metric res "sim_elapsed_s");
  Alcotest.check close "sim_traffic_mb = update + protocol bytes"
    (mean (fun r ->
         float_of_int (Svm.Runtime.total_update_bytes r + Svm.Runtime.total_protocol_bytes r))
    *. 1e-6)
    (metric res "sim_traffic_mb");
  Alcotest.check close "sim_proto_mem_kb"
    (mean (fun r -> float_of_int (Svm.Runtime.max_mem_peak r)) *. 1e-3)
    (metric res "sim_proto_mem_kb");
  (match Workload.offered_rate w with
  | Some _ ->
      let lats =
        Array.concat (List.map (fun r -> (Option.get r.Svm.Runtime.r_ops).Svm.Runtime.or_lats) rs)
      in
      Array.sort compare lats;
      let q p = Option.get (Svm.Stats.quantile lats p) *. 1e-3 in
      Alcotest.check close "serve_p50_ms" (q 0.5) (metric res "serve_p50_ms");
      Alcotest.check close "serve_p99_ms" (q 0.99) (metric res "serve_p99_ms");
      Alcotest.check close "serve_p999_ms" (q 0.999) (metric res "serve_p999_ms");
      Alcotest.check close "serve_achieved_ops_s"
        (float_of_int (Array.length lats) /. (mean (fun r -> r.Svm.Runtime.r_elapsed) *. 1e-6
                                              *. float_of_int (List.length rs)))
        (metric res "serve_achieved_ops_s");
      Alcotest.(check bool)
        "capacity at least the offered rate" true
        (metric res "serve_capacity_ops_s" >= 1000.)
  | None ->
      let e = (List.hd rs).Svm.Runtime.r_elapsed in
      Alcotest.check close "one op per run: latency" (e *. 1e-3) (metric res "serve_p99_ms");
      Alcotest.check close "one op per run: rate" (1e6 /. e) (metric res "serve_achieved_ops_s"));
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " positive") true (metric res n > 0.))
    [ "host_wall_s"; "host_alloc_mwords"; "host_peak_heap_mb"; "setup_s" ];
  Alcotest.(check int) "no failed ops" 0 res.Measure.failed;
  Alcotest.(check bool) "ops attempted" true (res.Measure.attempted >= 3 * w.Workload.ops)

(* A planted verification failure fails every op of that run and the
   result is not correct. *)
let test_planted_failure () =
  let w = Workload.make ~scale:test_scale "kv-hlrc" ~seed:5 in
  let planted =
    {
      w with
      Workload.body =
        (fun ~verify ctx ->
          w.Workload.body ~verify:false ctx;
          if verify && Svm.Api.pid ctx = 0 then failwith "planted verification failure");
    }
  in
  let res = Measure.end_to_end ~scale:test_scale ~seconds:0.01 planted in
  Alcotest.(check int) "the verify run's ops all fail" w.Workload.ops res.Measure.failed;
  Alcotest.(check bool) "not correct" false (Report.correct res);
  Alcotest.(check bool)
    "the failure is named" true
    (List.exists
       (fun f ->
         let needle = "planted" in
         let n = String.length needle and m = String.length f in
         let rec go i = i + n <= m && (String.sub f i n = needle || go (i + 1)) in
         go 0)
       res.Measure.failures)

(* A digest that differs from the verified run's fails the run. *)
let test_digest_mismatch () =
  let w = Workload.make ~scale:test_scale "kv-hlrc" ~seed:5 in
  let run = Runner.run ~expect_digest:0L w in
  Alcotest.(check bool) "digest failure" true (run.Runner.failure <> None);
  Alcotest.(check int) "every op failed" w.Workload.ops (Runner.failed_ops w run)

(* The peak heap is the workload's own: a larger heap earlier in the
   process, as an earlier workload of the same invocation leaves behind,
   does not show in it. *)
let test_peak_heap_per_workload () =
  let w = Workload.make ~scale:test_scale "kv-hlrc" ~seed:5 in
  let peak () = metric (Measure.end_to_end ~scale:test_scale ~seconds:0.01 w) "host_peak_heap_mb" in
  let first = peak () in
  let earlier = ref (Array.init 2_000_000 (fun i -> ref i)) in
  ignore (Sys.opaque_identity !earlier);
  earlier := [||];
  Gc.full_major ();
  let mb = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8e-6 in
  Alcotest.(check bool) "the process peaked above 40 MB" true (mb > 40.);
  let second = peak () in
  Alcotest.(check bool)
    (Printf.sprintf "second figure %.2f MB, first %.2f MB" second first)
    true
    (second < 20. && Float.abs (second -. first) <= (0.25 *. first) +. 1.)

(* The CI smoke's overloaded plan (100k ops/s offered) is saturated; the
   benchmark's 1,000 ops/s plan is not. *)
let test_saturation_verdict () =
  let p = Apps.Registry.kvstore_params Apps.Registry.Test in
  let offered = p.Apps.Kvstore.traffic.Traffic.rate in
  Alcotest.check close "CI smoke rate" 100_000. offered;
  let cfg = Svm.Config.make ~nprocs:8 Svm.Config.Hlrc in
  let r = Svm.Runtime.run cfg (Apps.Kvstore.body ~verify:false p) in
  let s = Serve.pooled ~offered [ r ] in
  Alcotest.(check string) "overloaded" "saturated" (Serve.verdict s);
  let w = Workload.make ~scale:test_scale "kv-hlrc" ~seed:5 in
  let s' = Serve.pooled ~offered:1000. [ direct w ] in
  Alcotest.(check string) "below the knee" "ok" (Serve.verdict s');
  (* A saturated run's percentiles are withheld from the metrics. *)
  let over = Workload.at_rate w 100_000. in
  let res = Measure.end_to_end ~scale:test_scale ~seconds:0.01 over in
  Alcotest.(check bool) "flagged" true res.Measure.saturated;
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (n ^ " withheld") false
        (List.exists (fun (m : Measure.metric) -> m.Measure.name = n) res.Measure.metrics))
    [ "serve_p50_ms"; "serve_p99_ms"; "serve_p999_ms" ]

let test_capacity_search () =
  let calls = ref [] in
  let ok rate =
    calls := rate :: !calls;
    rate <= 1750.
  in
  let cap, probes = Serve.capacity ~lo:1000. ok in
  Alcotest.(check int) "probes counted" (List.length !calls) probes;
  Alcotest.(check bool) "below the threshold" true (cap <= 1750.);
  Alcotest.(check bool) "within one bisection step" true (1750. -. cap < 3000. /. 128.);
  let cap', _ = Serve.capacity ~lo:1000. ok in
  Alcotest.check close "deterministic" cap cap'

(* Capacity probes are checked like every other run: a probe whose final
   memory differs from the verified digest fails and ends the search. *)
let test_capacity_probe_checked () =
  let w = Workload.make ~scale:test_scale "kv-hlrc" ~seed:5 in
  let t = Measure.tally () in
  Alcotest.(check bool)
    "search ended" true
    (Measure.capacity t ~digest:0L w ~offered:1000. = None);
  Alcotest.(check int) "one probe ran" w.Workload.ops t.Measure.attempted;
  Alcotest.(check int) "its ops all failed" w.Workload.ops t.Measure.failed;
  (* The offered rate moves only arrival times: every probe reproduces the
     verified digest. *)
  let t = Measure.tally () in
  match Measure.capacity t ~digest:(direct w).Svm.Runtime.r_mem_digest w ~offered:1000. with
  | None -> Alcotest.failf "a probe failed: %s" (String.concat "; " t.Measure.failures)
  | Some (cap, probes) ->
      Alcotest.(check bool) "searched" true (probes > 1 && cap >= 1000.);
      Alcotest.(check int) "no failed ops" 0 t.Measure.failed

(* Each probe reports a count matching the calls it made. *)
let test_probes () =
  List.iter
    (fun name ->
      let w = Workload.make ~scale:test_scale name ~seed:5 in
      let cfg = w.Workload.cfg in
      let pw = cfg.Svm.Config.page_words in
      let read, write = Probes.api_hits cfg ~n:(8 * pw) in
      Alcotest.(check int) (name ^ " reads") (8 * pw) read.Probes.calls;
      Alcotest.(check int) (name ^ " writes") (8 * pw) write.Probes.calls;
      let wf = Probes.api_write_faults cfg ~pages:4 ~rounds:3 in
      Alcotest.(check int) (name ^ " write faults") 12 wf.Probes.calls;
      let miss = Probes.read_misses cfg ~pages:4 ~rounds:3 in
      Alcotest.(check int) (name ^ " read misses") 12 miss.Probes.calls;
      let lk = Probes.lock_handoffs cfg ~per_node:5 in
      Alcotest.(check int) (name ^ " lock acquires") (5 * cfg.Svm.Config.nprocs) lk.Probes.calls;
      Alcotest.(check bool) (name ^ " handoffs") true (lk.Probes.units > 0);
      let tr = Probes.transport cfg ~n:(4 * cfg.Svm.Config.nprocs) in
      Alcotest.(check int) (name ^ " deliveries") (4 * cfg.Svm.Config.nprocs) tr.Probes.calls)
    Workload.names;
  let create, apply = Probes.diff ~page_words:1024 ~dirty:7 ~n:50 in
  Alcotest.(check int) "diffs of 7 words" 50 create.Probes.calls;
  Alcotest.(check int) "diff applies" 50 apply.Probes.calls;
  Alcotest.(check int) "engine steps" 1000 (Probes.engine ~depth:32 ~n:1000).Probes.calls;
  let tp = (Workload.kv_params test_scale ~seed:5 ~write_ratio:0.2).Apps.Kvstore.traffic in
  Alcotest.(check int) "traffic ops" 500 (Probes.traffic tp ~n:500).Probes.calls;
  Alcotest.(check int) "trace records" 500 (Probes.trace_emit ~n:500).Probes.calls

(* The traced run: cp.* partitions sim_elapsed_s, every per-layer metric
   is present, and the traced simulation equals the untraced one. *)
let test_per_layer () =
  let w = Workload.make ~scale:test_scale "lu-hlrc" ~seed:5 in
  let res = Measure.per_layer ~scale:test_scale w in
  Alcotest.(check bool) "correct" true (Report.correct res);
  let r = direct w in
  let cp =
    List.fold_left (fun a n -> a +. metric res n) 0.
      [ "cp.local_s"; "cp.data_s"; "cp.lock_s"; "cp.barrier_s"; "cp.gc_s" ]
  in
  Alcotest.(check (float 1e-9)) "cp sums to sim_elapsed_s" (r.Svm.Runtime.r_elapsed *. 1e-6) cp;
  Alcotest.(check int) "sim.events" r.Svm.Runtime.r_events (int_of_float (metric res "sim.events"));
  Alcotest.check close "machine.update_mb"
    (float_of_int (Svm.Runtime.total_update_bytes r) *. 1e-6)
    (metric res "machine.update_mb");
  Alcotest.(check string)
    "fingerprint of the traced run equals the untraced one"
    (Obs.Json.to_string (Runner.fingerprint w r))
    (Obs.Json.to_string res.Measure.fingerprint)

(* The same seed gives the same inputs; another seed, other inputs. *)
let test_seeds () =
  let fp name seed =
    let w = Workload.make ~scale:test_scale name ~seed in
    Obs.Json.to_string (Runner.fingerprint w (direct w))
  in
  List.iter
    (fun name ->
      Alcotest.(check string) (name ^ " repeatable") (fp name 3) (fp name 3);
      Alcotest.(check bool) (name ^ " seed matters") true (fp name 3 <> fp name 4))
    Workload.names

let test_result_line () =
  let w = Workload.make ~scale:test_scale "kv-hlrc" ~seed:5 in
  let res = Measure.end_to_end ~scale:test_scale ~seconds:0.01 w in
  match Report.result_line [ res ] with
  | Obs.Json.Obj fields ->
      Alcotest.(check (list string))
        "keys" [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst fields)
  | _ -> Alcotest.fail "not an object"

let () =
  Alcotest.run "perfbench"
    [
      ( "end-to-end",
        List.map
          (fun n ->
            Alcotest.test_case ("metrics from report: " ^ n) `Quick (test_end_to_end_from_report n))
          Workload.names
        @ [
            Alcotest.test_case "planted verification failure" `Quick test_planted_failure;
            Alcotest.test_case "digest mismatch" `Quick test_digest_mismatch;
          Alcotest.test_case "peak heap per workload" `Quick test_peak_heap_per_workload;
            Alcotest.test_case "result line keys" `Quick test_result_line;
          ] );
      ( "serving",
        [
          Alcotest.test_case "saturation verdict" `Quick test_saturation_verdict;
          Alcotest.test_case "capacity search" `Quick test_capacity_search;
          Alcotest.test_case "capacity probes checked" `Quick test_capacity_probe_checked;
        ] );
      ( "per-layer",
        [
          Alcotest.test_case "probe counts" `Quick test_probes;
          Alcotest.test_case "traced run" `Quick test_per_layer;
        ] );
      ("workloads", [ Alcotest.test_case "seeds" `Quick test_seeds ]);
    ]
