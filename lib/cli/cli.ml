(* The command-line knobs of svm_run and bench, each defined once: one
   Arg.info, one default, one validation path. *)

open Cmdliner
open Term.Syntax

type kv = {
  ops : int option;
  rate : float option;
  keys : int option;
  theta : float option;
  write_ratio : float option;
  txn_ratio : float option;
  buckets : int option;
}

type common = {
  scale : Apps.Registry.scale;
  verify : bool;
  chaos : Machine.Chaos.params;
  fault_batch : int;
  metrics_interval : float;
  json_out : string option;
  trace_out : string option;
  trace_format : Obs.Export.format;
  trace_cap : int;
  kv : kv;
}

(* A value spelled as one of a library type's command-line [strings]; the
   library's case-insensitive [of_string] parses it. *)
let choice strings of_string to_string =
  let parse s =
    Option.to_result (of_string s)
      ~none:(Printf.sprintf "unknown value %S, expected one of %s" s (String.concat "|" strings))
  in
  Arg.conv' (parse, fun ppf v -> Format.pp_print_string ppf (to_string v))

let kv_given c =
  c.kv
  <> {
       ops = None;
       rate = None;
       keys = None;
       theta = None;
       write_ratio = None;
       txn_ratio = None;
       buckets = None;
     }

let kvstore_params c =
  let base = Apps.Registry.kvstore_params c.scale in
  let tp = base.Apps.Kvstore.traffic in
  let ov v dflt = Option.value v ~default:dflt in
  {
    base with
    Apps.Kvstore.buckets = ov c.kv.buckets base.Apps.Kvstore.buckets;
    traffic =
      {
        tp with
        Traffic.ops = ov c.kv.ops tp.Traffic.ops;
        rate = ov c.kv.rate tp.Traffic.rate;
        keys = ov c.kv.keys tp.Traffic.keys;
        theta = ov c.kv.theta tp.Traffic.theta;
        write_ratio = ov c.kv.write_ratio tp.Traffic.write_ratio;
        txn_ratio = ov c.kv.txn_ratio tp.Traffic.txn_ratio;
      };
  }

(* Config.make owns the ranges of the machine knobs (the chaos rates via
   Chaos.validate), so a one-node configuration checks them here, before
   either CLI simulates anything. *)
let validate c =
  match
    ignore
      (Svm.Config.make ~chaos:c.chaos ~trace_cap:c.trace_cap ~fault_batch:c.fault_batch
         ~metrics_interval:c.metrics_interval ~nprocs:1 Svm.Config.Hlrc);
    Apps.Kvstore.validate (kvstore_params c)
  with
  | () -> Ok c
  | exception Invalid_argument msg -> Error msg

let kv_term =
  let+ ops =
    let doc = "kvstore: total operations in the open-loop plan." in
    Arg.(value & opt (some int) None & info [ "kv-ops" ] ~docv:"N" ~doc)
  and+ rate =
    let doc = "kvstore: offered load in operations per simulated second." in
    Arg.(value & opt (some float) None & info [ "kv-rate" ] ~docv:"OPS_S" ~doc)
  and+ keys =
    let doc = "kvstore: key-space size." in
    Arg.(value & opt (some int) None & info [ "kv-keys" ] ~docv:"N" ~doc)
  and+ theta =
    let doc = "kvstore: Zipfian skew theta in [0,1); 0 is uniform." in
    Arg.(value & opt (some float) None & info [ "kv-theta" ] ~docv:"T" ~doc)
  and+ write_ratio =
    let doc = "kvstore: fraction of non-transaction operations that are puts." in
    Arg.(value & opt (some float) None & info [ "kv-write-ratio" ] ~docv:"P" ~doc)
  and+ txn_ratio =
    let doc = "kvstore: fraction of operations that are two-key transactions." in
    Arg.(value & opt (some float) None & info [ "kv-txn-ratio" ] ~docv:"P" ~doc)
  and+ buckets =
    let doc = "kvstore: bucket count (one SVM page per bucket)." in
    Arg.(value & opt (some int) None & info [ "kv-buckets" ] ~docv:"N" ~doc)
  in
  { ops; rate; keys; theta; write_ratio; txn_ratio; buckets }

let chaos_term =
  let+ drop_rate =
    let doc = "Probability in [0,1) that the network drops a packet (chaos testing)." in
    Arg.(value & opt float 0.0 & info [ "drop-rate" ] ~docv:"P" ~doc)
  and+ dup_rate =
    let doc = "Probability in [0,1) that the network duplicates a packet (chaos testing)." in
    Arg.(value & opt float 0.0 & info [ "dup-rate" ] ~docv:"P" ~doc)
  and+ jitter =
    let doc =
      "Maximum extra per-packet latency in microseconds; 1 in 64 packets spikes to 8x this."
    in
    Arg.(value & opt float 0.0 & info [ "jitter" ] ~docv:"US" ~doc)
  and+ straggler =
    let doc =
      "Straggler factor >= 1: each node's local work is scaled by a per-node multiplier \
       drawn uniformly from [1, $(docv)]. 1 disables."
    in
    Arg.(value & opt float 1.0 & info [ "straggler" ] ~docv:"F" ~doc)
  and+ fault_seed =
    let doc = "Seed for the fault-injection plan (independent of the simulation seed)." in
    Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"SEED" ~doc)
  in
  { Machine.Chaos.none with drop_rate; dup_rate; jitter; straggler; fault_seed }

let common =
  Term.term_result'
  @@ let+ scale =
       let doc = "Problem scale: test, bench or full." in
       Arg.(
         value
         & opt
             Apps.Registry.(choice scale_strings scale_of_string scale_name)
             Apps.Registry.Bench
         & info [ "s"; "scale" ] ~docv:"SCALE" ~doc)
     and+ verify =
       let doc = "Check results against the sequential reference (default true)." in
       Arg.(value & opt bool true & info [ "verify" ] ~docv:"BOOL" ~doc)
     and+ chaos = chaos_term
     and+ fault_batch =
       let doc =
         "Batched fault handling (home-based protocols): serve up to $(docv) adjacent \
          same-home invalid pages in the one round trip handling a miss. 1 (the default) \
          reproduces the paper's one-page-per-fault behavior exactly."
       in
       Arg.(value & opt int 1 & info [ "fault-batch" ] ~docv:"N" ~doc)
     and+ metrics_interval =
       let doc =
         "Sample the metrics flight recorder every $(docv) simulated microseconds: per-node \
          traffic/fault counters, in-flight/event-set/memory gauges, latency histograms and \
          page heatmaps, exported as the report JSON timeline block (and by svm_run's \
          --metrics-out). 0 (the default) disables metrics entirely, keeping every \
          output byte-identical to a run without the recorder."
       in
       Arg.(value & opt float 0.0 & info [ "metrics-interval" ] ~docv:"US" ~doc)
     and+ json_out =
       let doc = "Write the machine-readable report (JSON) to $(docv)." in
       Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
     and+ trace_out =
       let doc = "Write the typed trace-event stream to $(docv) (see --trace-format)." in
       Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
     and+ trace_format =
       let doc =
         "Trace output format: jsonl (one event per line) or chrome (Chrome trace_event \
          JSON, loadable in Perfetto / chrome://tracing)."
       in
       Arg.(
         value
         & opt
             Obs.Export.(choice [ "jsonl"; "chrome" ] format_of_string format_name)
             Obs.Export.Jsonl
         & info [ "trace-format" ] ~docv:"FMT" ~doc)
     and+ trace_cap =
       let doc =
         "Capacity of the trace-event sink used by --trace-out and --profile; events beyond \
          it are counted as dropped, keeping memory bounded on long runs."
       in
       Arg.(value & opt int 1_000_000 & info [ "trace-cap" ] ~docv:"N" ~doc)
     and+ kv = kv_term in
     validate
       {
         scale;
         verify;
         chaos;
         fault_batch;
         metrics_interval;
         json_out;
         trace_out;
         trace_format;
         trace_cap;
         kv;
       }

type run = {
  protocol : Svm.Config.protocol;
  seed : int;
  migrate : bool;
  coproc_locks : bool;
  replicas : int;
  repl_scheme : Svm.Config.repl_scheme;
  detector : Svm.Config.detector;
  hb_interval : float;
  hb_timeout : float;
  faults : Machine.Chaos.fault list;
  detect_delay : float;
}

let us_opt name default doc = Arg.(value & opt float default & info [ name ] ~docv:"US" ~doc)

let faults_term =
  let+ kill =
    let doc =
      "Chaos: crash-stop node $(docv) at --kill-at (links fall silent; with --replicas > 1 \
       its homed pages fail over to the next live replica). Node 0 (the lock/barrier \
       manager) cannot be killed."
    in
    Arg.(value & opt (some int) None & info [ "kill-node" ] ~docv:"NODE" ~doc)
  and+ kill_at = us_opt "kill-at" 0.0 "Simulated time (microseconds) at which --kill-node fires."
  and+ pause =
    let doc =
      "Chaos (gray failure): pause node $(docv) between --pause-at and --resume-at — it \
       stops executing but is not declared dead."
    in
    Arg.(value & opt (some int) None & info [ "pause" ] ~docv:"NODE" ~doc)
  and+ pause_at = us_opt "pause-at" 0.0 "Simulated time (microseconds) at which --pause fires."
  and+ resume_at =
    us_opt "resume-at" 0.0 "Simulated time (microseconds) at which the paused node resumes."
  and+ partition =
    let doc =
      "Chaos: network partition — the comma-separated node group $(docv) is cut off from \
       every other node between --partition-at and --heal-at (links within a side are \
       untouched; healing is by retransmission). The classic source of false suspicions \
       for the heartbeat detector."
    in
    Arg.(value & opt (some (list int)) None & info [ "partition" ] ~docv:"NODES" ~doc)
  and+ partition_at =
    us_opt "partition-at" 0.0
      "Simulated time (microseconds) at which --partition severs its links."
  and+ heal_at =
    us_opt "heal-at" 0.0 "Simulated time (microseconds) at which --partition heals."
  in
  let fault opt f = Option.to_list (Option.map f opt) in
  fault kill (fun node -> Machine.Chaos.Kill { node; at = kill_at })
  @ fault pause (fun node -> Machine.Chaos.Pause { node; from_ = pause_at; until = resume_at })
  @ fault partition (fun group ->
        Machine.Chaos.Partition { group; from_ = partition_at; until = heal_at })

let run =
  let+ protocol =
    let doc = "Protocol: " ^ String.concat ", " Svm.Config.protocol_strings ^ "." in
    Arg.(
      value
      & opt
          Svm.Config.(
            choice protocol_strings protocol_of_string (fun p ->
                String.lowercase_ascii (protocol_name p)))
          Svm.Config.Hlrc
      & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc)
  and+ seed =
    let doc = "Simulation seed." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  and+ migrate =
    let doc = "Enable adaptive home migration (home-based protocols)." in
    Arg.(value & flag & info [ "migrate" ] ~doc)
  and+ coproc_locks =
    let doc = "Service lock requests on the co-processor (overlapped protocols)." in
    Arg.(value & flag & info [ "coproc-locks" ] ~doc)
  and+ replicas =
    let doc =
      "Replication degree: each page keeps $(docv) replicas (the home plus the next \
       $(docv)-1 node ids). 1 (the default) disables replication and is byte-identical to \
       an unreplicated run."
    in
    Arg.(value & opt int 1 & info [ "replicas" ] ~docv:"K" ~doc)
  and+ repl_scheme =
    let doc =
      "Replication scheme: inval (header-only invalidations; recovery pulls retained diffs \
       back from live writers) or backup (primary streams every applied diff to the \
       backups)."
    in
    Arg.(
      value
      & opt
          Svm.Config.(choice repl_scheme_strings repl_scheme_of_string repl_scheme_name)
          Svm.Config.Inval
      & info [ "repl-scheme" ] ~docv:"SCHEME" ~doc)
  and+ detector =
    let doc =
      "Failure detector: oracle (the default — failover fires --detect-delay after a \
       scheduled kill, never spuriously) or heartbeat (nodes ping every --hb-interval; a \
       peer silent past --hb-timeout is suspected, a strict majority of suspicions deposes \
       it, and a falsely-deposed node rejoins when heard from again). Oracle output is \
       byte-identical to a build without the detector."
    in
    Arg.(
      value
      & opt
          Svm.Config.(choice detector_strings detector_of_string detector_name)
          Svm.Config.Oracle
      & info [ "detector" ] ~docv:"KIND" ~doc)
  and+ hb_interval =
    us_opt "hb-interval" 200.0
      "Heartbeat period in simulated microseconds (--detector heartbeat)."
  and+ hb_timeout =
    us_opt "hb-timeout" 0.0
      "Suspicion timeout in simulated microseconds; 0 (the default) auto-sizes it from the \
       heartbeat period and the chaos plan's worst jitter spike, so a fault-free run never \
       suspects anyone."
  and+ faults = faults_term
  and+ detect_delay =
    us_opt "detect-delay" 500.0
      "Failure-detector delay in microseconds: failover runs this long after the kill."
  in
  {
    protocol;
    seed;
    migrate;
    coproc_locks;
    replicas;
    repl_scheme;
    detector;
    hb_interval;
    hb_timeout;
    faults;
    detect_delay;
  }

let config ?trace_spans c r ~nprocs =
  Svm.Config.make ~home_migration:r.migrate ~coproc_locks:r.coproc_locks ~nprocs ~seed:r.seed
    ~chaos:{ c.chaos with Machine.Chaos.faults = r.faults; detect_delay = r.detect_delay }
    ~trace_cap:c.trace_cap ?trace_spans ~fault_batch:c.fault_batch ~replicas:r.replicas
    ~repl_scheme:r.repl_scheme ~detector:r.detector ~hb_interval:r.hb_interval
    ~hb_timeout:r.hb_timeout ~metrics_interval:c.metrics_interval r.protocol

let positionals ~docv ~doc ~default table =
  let names = List.map fst table in
  let doc = doc ^ " One of: " ^ String.concat ", " names ^ "." in
  let+ picked =
    Arg.(value & pos_all (enum (List.map (fun n -> (n, n)) names)) default & info [] ~docv ~doc)
  in
  List.map (fun n -> List.assoc n table) picked

let eval ?(err = Format.err_formatter) ?argv cmd =
  (* Cmdliner follows its message with usage lines; keep the first line,
     unwrapped. *)
  let buf = Buffer.create 256 in
  let cmd_err = Format.formatter_of_buffer buf in
  Format.pp_set_margin cmd_err 10_000;
  let reject msg =
    Format.fprintf err "%s@." msg;
    2
  in
  match Cmd.eval_value ~catch:false ~err:cmd_err ?argv cmd with
  | Ok _ -> 0
  | Error _ ->
      Format.pp_print_flush cmd_err ();
      reject (List.hd (String.split_on_char '\n' (Buffer.contents buf)))
  | exception (Failure msg | Invalid_argument msg) -> reject (Cmd.name cmd ^ ": " ^ msg)
