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

   hostprof samples the host call stack of one cell (--hostprof-cell,
   e.g. kvstore/lrc) and prints leaf and inclusive shares per function;
   its output is host-dependent, so `all` leaves it out.

   Parallelism: --jobs N evaluates independent cells on N domains
   (default: recommended_domain_count - 1). Output is byte-identical to
   --jobs 1. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the hot protocol primitives             *)

let bechamel_ns test =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance (Benchmark.all cfg [ instance ] test) in
  Hashtbl.fold
    (fun name result acc ->
      (name, match Analyze.OLS.estimates result with Some [ est ] -> Some est | _ -> None)
      :: acc)
    results []

(* The word-access path on hits, per word: one op is a sweep over four
   valid, writable pages, by the per-word loop and by the page-run block
   read. Measured inside a one-node run, where a ctx is live; a hit
   performs no effect, so Bechamel can drive it directly. *)
let api_micros () =
  let open Bechamel in
  let out = ref [] in
  let body ctx =
    let words = 4 * Svm.Api.page_words ctx in
    let a = Svm.Api.malloc ctx words in
    let buf = Array.make words 1.0 in
    Svm.Api.write_block ctx ~addr:a ~len:words buf;
    let sum = ref 0. in
    let per_word test =
      List.map
        (fun (name, est) -> (name, Option.map (fun e -> e /. float_of_int words) est, "ns/word"))
        (bechamel_ns test)
    in
    out :=
      per_word
        (Test.make ~name:"api-read"
           (Staged.stage (fun () ->
                for i = 0 to words - 1 do
                  sum := !sum +. Svm.Api.read ctx (a + i)
                done)))
      @ per_word
          (Test.make ~name:"api-read-block"
             (Staged.stage (fun () -> Svm.Api.read_block ctx ~addr:a ~len:words buf)))
  in
  ignore (Svm.Runtime.run (Svm.Config.make ~nprocs:1 Svm.Config.Hlrc) body);
  !out

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
  (* One dirty word in the page: the full-page scan, and the page table's
     ranged diff over the word it marked. *)
  let one_pt =
    Mem.Page_table.create ~pool:(Mem.Words.Pool.create page_words)
      (Mem.Layout.create ~page_words)
  in
  let one = Mem.Page_table.ensure one_pt 0 in
  let one_data = Mem.Page_table.attach_copy one_pt one in
  Mem.Words.blit ~src:twin ~dst:one_data;
  Mem.Page_table.make_twin one_pt one;
  Mem.Words.set one_data 517 (-1.0);
  Mem.Page_table.mark_written one ~lo:517 ~hi:517;
  let one_twin = Option.get one.Mem.Page_table.twin in
  let sparse_diff = Mem.Diff.create ~page:0 ~twin ~current:sparse in
  let dense_diff = Mem.Diff.create ~page:0 ~twin ~current:dense in
  let target = Mem.Words.copy twin in
  let twin_pool = Mem.Words.Pool.create page_words in
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
      Test.make ~name:"diff-create-1w-page"
        (Staged.stage (fun () ->
             ignore (Mem.Diff.create ~page:0 ~twin:one_twin ~current:one_data)));
      Test.make ~name:"diff-create-1w-range"
        (Staged.stage (fun () -> ignore (Mem.Page_table.diff one_pt one)));
      Test.make ~name:"diff-apply-sparse"
        (Staged.stage (fun () -> Mem.Diff.apply sparse_diff target));
      Test.make ~name:"diff-apply-dense"
        (Staged.stage (fun () -> Mem.Diff.apply dense_diff target));
      Test.make ~name:"twin-copy"
        (Staged.stage (fun () ->
             Mem.Words.Pool.release twin_pool (Mem.Words.Pool.take_copy twin_pool twin)));
      Test.make ~name:"vclock-merge"
        (Staged.stage (fun () -> Proto.Vclock.merge_into vt_a vt_b));
      Test.make ~name:"vclock-leq" (Staged.stage (fun () -> ignore (Proto.Vclock.leq vt_a vt_b)));
      Test.make ~name:"event-queue-push-pop"
        (Staged.stage (fun () ->
             let e = Sim.Engine.create ~capacity:64 () in
             for i = 0 to 63 do
               Sim.Engine.schedule e ~at:(float_of_int ((i * 7919) mod 101)) ignore
             done;
             ignore (Sim.Engine.run e)));
    ]
  in
  Format.printf "@.=== Micro-benchmarks (Bechamel) ===@.@.";
  List.iter
    (fun (name, est, unit) ->
      match est with
      | Some est -> Format.printf "%-24s %12.1f %s@." name est unit
      | None -> Format.printf "%-24s (no estimate)@." name)
    (List.concat_map
       (fun test -> List.map (fun (name, est) -> (name, est, "ns/op")) (bechamel_ns test))
       tests
    @ api_micros ())

(* The hostprof artifact's cells, APP/PROTO: one kvstore or LU run on the
   first --nodes count under the shared knobs, sampled by
   [Harness.Hostprof]. *)
let hostprof_cells =
  let kvstore (c : Cli.common) = Apps.Registry.kvstore_of_params (Cli.kvstore_params c) in
  let lu (c : Cli.common) = Apps.Registry.lu c.scale in
  List.concat_map
    (fun (app, make) ->
      List.filter_map
        (fun p ->
          Option.map
            (fun proto -> (app ^ "/" ^ p, (make, proto)))
            (Svm.Config.protocol_of_string p))
        Svm.Config.protocol_strings)
    [ ("kvstore", kvstore); ("lu", lu) ]

let hostprof_cell_doc =
  "Cell the hostprof artifact samples, as APP/PROTO with APP kvstore or lu (e.g. \
   kvstore/lrc); it runs on the first --nodes count under the shared knobs. hostprof is \
   a SIGPROF call-stack sampler (ITIMER_PROF, 0.5 ms of CPU time) printing leaf and \
   inclusive shares per function; its output is host-dependent, so it is not part of \
   all. Known bias: a sample lands at the next poll point, and a poll point with no \
   debug info (a loop's back edge) is charged to the function containing it, so a loop \
   inside a closure shows up as its caller (e.g. Intervals.end_interval.(fun))."

let hostprof ppf (c : Cli.common) ~nprocs cell =
  let make, proto = List.assoc cell hostprof_cells in
  let cfg =
    Svm.Config.make ~chaos:c.chaos ~fault_batch:c.fault_batch ~trace_cap:c.trace_cap ~nprocs
      proto
  in
  Format.fprintf ppf "@.=== Host profile (SIGPROF call-stack samples) ===@.@.";
  Format.fprintf ppf "%s on %d nodes, scale %s: " cell nprocs (Apps.Registry.scale_name c.scale);
  let body = (make c).Apps.Registry.body ~verify:c.verify in
  let _, p = Harness.Hostprof.run (fun () -> Svm.Runtime.run cfg body) in
  Harness.Hostprof.pp ppf p

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
  cell : string;
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
      ("hostprof", false, fun x -> hostprof x.ppf x.c ~nprocs:(one_np x) x.cell);
    ]
  in
  List.map (fun (name, _, render) -> (name, render)) rows
  @ [ ("all", fun x -> List.iter (fun (_, in_all, render) -> if in_all then render x) rows) ]

let main c nodes jobs perf_out cell renders =
  let ppf = Format.std_formatter in
  let sink = Option.map (fun _ -> Obs.Trace.create_sink ~capacity:c.Cli.trace_cap ()) c.trace_out in
  let m =
    Harness.Matrix.create ~verify:c.verify ?sink ~chaos:c.chaos ~fault_batch:c.fault_batch
      ~metrics_interval:c.metrics_interval ~scale:c.scale ()
  in
  let x = { ppf; c; nodes; perf_out; cell; m; pool = Harness.Pool.create ~jobs; failures = ref 0 } in
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
  let cell =
    Arg.(
      value
      & opt (enum (List.map (fun (name, _) -> (name, name)) hostprof_cells)) "kvstore/hlrc"
      & info [ "hostprof-cell" ] ~docv:"APP/PROTO" ~doc:hostprof_cell_doc)
  in
  let renders =
    Cli.positionals ~docv:"ARTIFACT" ~doc:"Artifacts to regenerate (default all)."
      ~default:[ "all" ] artifacts
  in
  let doc = "regenerate the paper's tables and figures on the simulated SVM system" in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const main $ Cli.common $ term_result' nodes $ jobs $ perf_out $ cell $ renders)

let () = exit (Cli.eval cmd)
