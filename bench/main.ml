(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus Bechamel micro-benchmarks of the protocol
   primitives. `bench --help` lists the artifacts and every flag.

   Usage:
     dune exec bench/main.exe                -- everything, default scale
     dune exec bench/main.exe -- table2      -- one artifact
     dune exec bench/main.exe -- --scale full --nodes 8,32,64 table2
     dune exec bench/main.exe -- micro       -- Bechamel micro-benchmarks

   The flags shared with svm_run (scale, verification, chaos plan, trace
   and report outputs, fault batching, metrics cadence, the kvstore
   workload) come from [Cli.common] and apply to every simulated cell;
   the soak artifacts and ablation-fault-batch sweep their own plans.
   --kv-theta / --kv-write-ratio narrow the kvstore-skew sweep axes to
   that one value. With --metrics-interval and --json the dump carries a
   per-cell timeline block.

   perf runs the fixed microbenchmark cells (events/sec, minor words per
   event, wall clock) and --perf-out FILE writes them as JSON for the CI
   perf gate.

   Parallelism: --jobs N evaluates independent cells on N domains
   (default: recommended_domain_count - 1). Output is byte-identical to
   --jobs 1. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the hot protocol primitives             *)

let micro () =
  let open Bechamel in
  let page_words = 1024 in
  let twin = Mem.Words.of_array (Array.init page_words (fun i -> float_of_int i)) in
  let sparse = Mem.Words.copy twin in
  let dense = Mem.Words.copy twin in
  for i = 0 to page_words - 1 do
    if i mod 16 = 0 then Mem.Words.set sparse i (Mem.Words.get sparse i +. 1.0);
    Mem.Words.set dense i (Mem.Words.get dense i +. 1.0)
  done;
  let sparse_diff = Mem.Diff.create ~page:0 ~twin ~current:sparse in
  let dense_diff = Mem.Diff.create ~page:0 ~twin ~current:dense in
  let target = Mem.Words.copy twin in
  let vt_a = Proto.Vclock.create ~nprocs:64 in
  let vt_b = Proto.Vclock.create ~nprocs:64 in
  for i = 0 to 63 do
    Proto.Vclock.set vt_b i (i * 3)
  done;
  let tests =
    [
      Test.make ~name:"diff-create-sparse"
        (Staged.stage (fun () -> ignore (Mem.Diff.create ~page:0 ~twin ~current:sparse)));
      Test.make ~name:"diff-create-dense"
        (Staged.stage (fun () -> ignore (Mem.Diff.create ~page:0 ~twin ~current:dense)));
      Test.make ~name:"diff-apply-sparse"
        (Staged.stage (fun () -> Mem.Diff.apply sparse_diff target));
      Test.make ~name:"diff-apply-dense"
        (Staged.stage (fun () -> Mem.Diff.apply dense_diff target));
      Test.make ~name:"twin-copy" (Staged.stage (fun () -> ignore (Mem.Words.copy twin)));
      Test.make ~name:"vclock-merge"
        (Staged.stage (fun () -> Proto.Vclock.merge_into vt_a vt_b));
      Test.make ~name:"vclock-leq" (Staged.stage (fun () -> ignore (Proto.Vclock.leq vt_a vt_b)));
      Test.make ~name:"event-queue-push-pop"
        (Staged.stage (fun () ->
             let q = Sim.Cqueue.create ~capacity:64 () in
             for i = 0 to 63 do
               Sim.Cqueue.push q ~key:(float_of_int ((i * 7919) mod 101)) i
             done;
             while not (Sim.Cqueue.is_empty q) do
               ignore (Sim.Cqueue.pop_min q)
             done));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
    Benchmark.all cfg [ instance ] test
  in
  let analyze results =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  Format.printf "@.=== Micro-benchmarks (Bechamel) ===@.@.";
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> Format.printf "%-24s %12.1f ns/op@." name est
          | _ -> Format.printf "%-24s (no estimate)@." name)
        results)
    tests

(* Machine-readable dump of every simulated cell (one per matrix entry). *)
let dump_json file m =
  let rm_scale = Apps.Registry.scale_name (Harness.Matrix.scale m) in
  let cell (app, proto, np, r) =
    let meta = { Svm.Report_json.rm_app = app; rm_scale } in
    Obs.Json.Obj
      [
        ("app", Obs.Json.String app);
        ( "protocol",
          Obs.Json.String (String.lowercase_ascii (Svm.Config.protocol_name proto)) );
        ("nodes", Obs.Json.Int np);
        ("report", Svm.Report_json.encode ~meta r);
      ]
  in
  let doc =
    Obs.Json.Obj
      [
        ("schema_version", Obs.Json.Int Svm.Report_json.schema_version);
        ("cells", Obs.Json.List (List.map cell (Harness.Matrix.cells m)));
      ]
  in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Obs.Json.to_string_pretty doc);
      output_char oc '\n')

(* What an artifact renders from: the shared knobs, the bench-only ones,
   and the matrix, pool and failure count of this invocation. *)
type ctx = {
  ppf : Format.formatter;
  c : Cli.common;
  nodes : int list;
  perf_out : string option;
  m : Harness.Matrix.t;
  pool : Harness.Pool.t;
  failures : int ref;
}

(* With --jobs 1 the prefetch is skipped entirely and every cell is
   simulated inline by its renderer; with a wider pool the renderer's cells
   are evaluated on the pool first (in first-use order, so progress lines
   and trace events keep the sequential order) and the renderer then reads
   them from the memo cache. *)
let prefetch x cells =
  if Harness.Pool.jobs x.pool > 1 then Harness.Matrix.prefetch x.m x.pool cells

(* A matrix-backed table over the --nodes counts. *)
let table cells render x =
  prefetch x (cells x.m ~node_counts:x.nodes);
  render x.ppf x.m ~node_counts:x.nodes

let ablation f x = f x.ppf ?pool:(Some x.pool) ~scale:x.c.Cli.scale ~node_counts:x.nodes ()

(* A pass/fail artifact: a failed check makes the run exit 1. *)
let check x ok = if not ok then incr x.failures

(* kvstore-skew and timeline run on one machine size: the first --nodes
   count, if it is at least 2. *)
let one_np x = match x.nodes with n :: _ when n >= 2 -> n | _ -> 8

let write_perf file results =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Obs.Json.to_string_pretty (Harness.Perf.to_json results));
      output_char oc '\n')

(* Every artifact: (name, part of `all`, renderer). The positional's
   accepted names and help text derive from this table. *)
let artifacts =
  let open Harness in
  let rows =
    [
      ( "table1",
        true,
        fun x ->
          prefetch x (Tables.table1_cells x.m);
          Tables.table1 x.ppf x.m );
      ("table2", true, table Tables.table2_cells Tables.table2);
      ("table3", true, fun x -> Tables.table3 x.ppf);
      ("table4", true, table Tables.table4_cells Tables.table4);
      ("table5", true, table Tables.table5_cells Tables.table5);
      ("table6", true, table Tables.table6_cells Tables.table6);
      ("figure3", true, table Tables.figure3_cells Tables.figure3);
      ("figure4", true, table Tables.figure4_cells (Tables.figure4 ~epoch:9));
      ("sor-zero", true, table Tables.sor_zero_cells Tables.sor_zero);
      ("ablation-homes", true, ablation Ablations.home_placement);
      ("ablation-network", true, ablation Ablations.network_sensitivity);
      ("ablation-pagesize", true, ablation Ablations.page_size);
      ("ablation-locks", true, ablation Ablations.coproc_locks);
      ("aurc", true, table Ablations.aurc_cells Ablations.aurc_comparison);
      ("protocols", false, table Ablations.aurc_cells Ablations.aurc_comparison);
      ("ablation-migration", true, ablation Ablations.home_migration);
      ("ablation-fault-batch", false, ablation Ablations.fault_batch);
      ("chaos-soak", false, fun x -> check x (Soak.report x.ppf ~pool:x.pool ~scale:x.c.scale ()));
      ( "kill-soak",
        false,
        fun x -> check x (Soak.kill_report x.ppf ~pool:x.pool ~scale:x.c.scale ()) );
      ( "availability",
        false,
        fun x -> check x (Soak.availability_report x.ppf ~pool:x.pool ~scale:x.c.scale ()) );
      ( "partition-soak",
        false,
        fun x -> check x (Soak.partition_report x.ppf ~pool:x.pool ~scale:x.c.scale ()) );
      ( "suspicion-soak",
        false,
        fun x -> check x (Soak.false_suspicion_report x.ppf ~pool:x.pool ~scale:x.c.scale ()) );
      ( "detector",
        false,
        (* Homeless vs home-based: the detector's latency/false-positive
           trade-off must hold on both protocol families. *)
        fun x ->
          List.iter
            (fun proto -> check x (Soak.detector_report x.ppf ~scale:x.c.scale ~proto ()))
            [ Svm.Config.Hlrc; Svm.Config.Lrc ] );
      ( "profile",
        false,
        fun x ->
          Profile.report x.ppf ~pool:x.pool ~verify:x.c.verify ~chaos:x.c.chaos
            ~trace_cap:x.c.trace_cap ~scale:x.c.scale ~node_counts:x.nodes () );
      ( "timeline",
        false,
        fun x ->
          Timeline.report x.ppf ~pool:x.pool ~verify:x.c.verify ~scale:x.c.scale
            ~np:(one_np x) () );
      ( "kvstore-skew",
        false,
        fun x ->
          (* --kv-theta / --kv-write-ratio pin the corresponding sweep axis. *)
          let axis v default = match v with Some v -> [ v ] | None -> default in
          Serving.report x.ppf ~pool:x.pool ~scale:x.c.scale ~nprocs:(one_np x)
            ~thetas:(axis x.c.kv.theta Serving.default_thetas)
            ~write_ratios:(axis x.c.kv.write_ratio Serving.default_write_ratios)
            ~params:(Cli.kvstore_params x.c) () );
      ( "perf",
        false,
        fun x ->
          let results = Perf.run_all () in
          Perf.pp_table x.ppf results;
          Option.iter (fun file -> write_perf file results) x.perf_out );
      ("micro", true, fun _ -> micro ());
    ]
  in
  List.map (fun (name, _, render) -> (name, render)) rows
  @ [ ("all", fun x -> List.iter (fun (_, in_all, render) -> if in_all then render x) rows) ]

let main c nodes jobs perf_out renders =
  let ppf = Format.std_formatter in
  let sink = Option.map (fun _ -> Obs.Trace.create_sink ~capacity:c.Cli.trace_cap ()) c.trace_out in
  let m =
    Harness.Matrix.create ~verify:c.verify ?sink ~chaos:c.chaos ~fault_batch:c.fault_batch
      ~metrics_interval:c.metrics_interval ~scale:c.scale ()
  in
  let x = { ppf; c; nodes; perf_out; m; pool = Harness.Pool.create ~jobs; failures = ref 0 } in
  Harness.Matrix.on_progress m (fun s -> Format.eprintf "  [%s]@." s);
  List.iter (fun render -> render x) renders;
  Option.iter (fun file -> dump_json file m) c.json_out;
  (match (c.trace_out, sink) with
  | Some file, Some s -> Obs.Export.write_file c.trace_format file s
  | _ -> ());
  Format.pp_print_flush ppf ();
  if !(x.failures) > 0 then exit 1

let cmd =
  let nodes =
    let doc = "Comma-separated node counts the tables and figures sweep." in
    let open Term.Syntax in
    let+ nodes = Arg.(value & opt (list int) [ 8; 32; 64 ] & info [ "nodes" ] ~docv:"N,..." ~doc) in
    match List.find_opt (fun n -> n < 1) nodes with
    | Some n -> Error (Printf.sprintf "--nodes: node count must be positive, got %d" n)
    | None -> Ok nodes
  in
  let jobs =
    let doc = "Evaluate independent cells on $(docv) domains; output is identical to 1." in
    Arg.(value & opt int (Harness.Pool.default_jobs ()) & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let perf_out =
    let doc = "Write the perf artifact's cells to $(docv) as JSON." in
    Arg.(value & opt (some string) None & info [ "perf-out" ] ~docv:"FILE" ~doc)
  in
  let renders =
    Cli.positionals ~docv:"ARTIFACT" ~doc:"Artifacts to regenerate (default all)."
      ~default:[ "all" ] artifacts
  in
  let doc = "regenerate the paper's tables and figures on the simulated SVM system" in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const main $ Cli.common $ term_result' nodes $ jobs $ perf_out $ renders)

let () = exit (Cli.eval cmd)
