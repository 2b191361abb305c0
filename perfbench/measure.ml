(* The two kinds of run: end-to-end metrics (untraced) and per-layer
   metrics (traced run plus probes). Every run of the workload is
   checked; failures are tallied against the ops attempted. *)

type metric = { name : string; unit_ : string; value : float }

type result = {
  workload : Workload.t;
  metrics : metric list;
  attempted : int;
  failed : int;
  failures : string list;  (** One line per failed check, oldest first. *)
  saturated : bool;  (** The fixed-rate run is past the knee. *)
  fingerprint : Obs.Json.t;  (** Simulated outcome, [Null] if no run passed. *)
  notes : string list;  (** Sample counts behind medians and percentiles. *)
}

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Per-invocation tally of checked runs. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let tally () = { attempted = 0; failed = 0; failures = [] }

let record t (w : Workload.t) what (run : Runner.run) =
  t.attempted <- t.attempted + w.Workload.ops;
  let f = Runner.failed_ops w run in
  t.failed <- t.failed + f;
  (match run.Runner.failure with
  | Some msg -> t.failures <- Printf.sprintf "%s: %s" what msg :: t.failures
  | None ->
      if f > 0 then t.failures <- Printf.sprintf "%s: %d ops failed" what f :: t.failures);
  run

(* The verification run: the app checks itself against its sequential
   reference (LU) or plan replay (kv). A chaos workload verifies its
   fault-free twin instead, and every chaos run must then reach the same
   final memory. Returns the digest every later run must reproduce. *)
let verified t (w : Workload.t) =
  let cfg = Option.value w.Workload.twin ~default:w.Workload.cfg in
  let v = record t w "verify" (Spans.with_ "verify" (fun () -> Runner.run ~verify:true ~cfg w)) in
  Option.map (fun r -> r.Svm.Runtime.r_mem_digest) v.Runner.report

let m name unit_ value = { name; unit_; value }

(* ---------------------------------------------------------------- *)
(* End-to-end                                                        *)

(* Set-ups timed after each measured run. *)
let setup_block = 101

(* Building the workload (app and plan) plus one empty-body run on its
   configuration: engine, page tables, coroutines, transport. *)
let setup_once ~scale (w : Workload.t) =
  let t0 = Runner.now_ns () in
  let w' =
    Workload.make ~scale ~config_seed:w.Workload.config_seed ~plan:w.Workload.plan
      w.Workload.name ~seed:w.Workload.seed
  in
  ignore (Svm.Runtime.run w'.Workload.cfg (fun _ -> ()));
  Runner.seconds_since t0

(* What the metrics need from a plan's first measured report. Only this
   is kept, not the report, and the latencies go into a buffer allocated
   before the measured runs, so the heap the benchmark itself holds does
   not grow from run to run (the GC paces the peak heap to the live one). *)
type summary = {
  fingerprint : Obs.Json.t;
  elapsed_us : float;
  traffic_bytes : int;
  proto_mem_peak : int;
}

let summary (w : Workload.t) (r : Svm.Runtime.report) =
  {
    fingerprint = Runner.fingerprint w r;
    elapsed_us = r.Svm.Runtime.r_elapsed;
    traffic_bytes = Svm.Runtime.total_update_bytes r + Svm.Runtime.total_protocol_bytes r;
    proto_mem_peak = Svm.Runtime.max_mem_peak r;
  }

(* One plan: its workload, verified digest, and the summary and number of
   latencies of its first measured run. *)
type plan_result = {
  w : Workload.t;
  digest : int64 option;
  mutable first : summary option;
  mutable lats : int;
}

let mean f xs = List.fold_left (fun a x -> a +. f x) 0. xs /. float_of_int (List.length xs)

exception Probe_failed

(* The capacity search on one plan. The offered rate only moves arrival
   times, so every probe must reproduce the plan's verified digest. A probe
   that fails a check ends the search: [None]. *)
let capacity t ?digest (w : Workload.t) ~offered =
  let ok rate =
    let probe = Workload.at_rate w rate in
    let run = record t probe "capacity probe" (Runner.run ?expect_digest:digest probe) in
    match run.Runner.report with
    | Some r when run.Runner.failure = None ->
        not (Serve.pooled ~offered:rate [ r ]).Serve.saturated
    | _ -> raise Probe_failed
  in
  match Serve.capacity ~lo:offered ok with
  | found -> Some found
  | exception Probe_failed -> None

let end_to_end ?(scale = Workload.Bench) ~seconds (w : Workload.t) =
  let t = tally () in
  ignore (Calib.index ()) (* warm-up *);
  ignore (setup_once ~scale w) (* warm-up *);
  let plans =
    List.init (Workload.plans ~scale w.Workload.name) (fun plan ->
        let w =
          if plan = w.Workload.plan then w
          else
            Workload.make ~scale ~config_seed:w.Workload.config_seed ~plan w.Workload.name
              ~seed:w.Workload.seed
        in
        { w; digest = verified t w; first = None; lats = 0 })
    |> Array.of_list
  in
  (* Plan k's latencies start at k * ops. *)
  let lat_buf = Array.make (Array.length plans * w.Workload.ops) 0. in
  (* Measured runs: tracing off, verification excluded, cycling through
     the plans until every plan ran and the time is up. Each run is checked
     against its plan's verified digest and first run, and followed by a
     block of set-ups. A host-speed reference is taken before the first run
     and after each block; the run and its set-ups are divided by the mean
     of the two references around them, which cancels the host's drift
     between minutes and its fast and slow spells within one (see Calib). *)
  let samples = ref [] and setups = ref [] and speeds = ref [] in
  let deadline = Int64.add (Runner.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let heap = ref 0 in
  let before = ref (Calib.index ()) in
  Spans.with_ "measured" (fun () ->
      let i = ref 0 in
      while !i < max 3 (Array.length plans) || Runner.now_ns () < deadline do
        let k = !i mod Array.length plans in
        let p = plans.(k) in
        incr i;
        Gc.full_major ();
        let run =
          record t p.w "measured run"
            (Spans.with_ "run" (fun () -> Runner.run ?expect_digest:p.digest p.w))
        in
        (* The workload's own peak heap: the largest seen inside its
           measured runs, over the first pass through the plans. That is a
           fixed point of the run sequence, so it does not depend on how
           many runs fit in the time, nor on what ran earlier in the
           process. *)
        if !i <= Array.length plans then heap := max !heap run.Runner.peak_heap_words;
        Gc.full_major ();
        let block =
          Spans.with_ "setup" (fun () -> List.init setup_block (fun _ -> setup_once ~scale p.w))
        in
        let after = Calib.index () in
        let speed = (!before +. after) /. 2. in
        before := after;
        speeds := speed :: !speeds;
        setups := List.rev_append (List.map (fun s -> (s, s /. speed)) block) !setups;
        let wall = run.Runner.wall_s in
        samples := (wall, wall /. speed, run.Runner.alloc_words) :: !samples;
        match (run.Runner.report, p.first) with
        | Some r, None ->
            p.first <- Some (summary p.w r);
            let lats = Serve.latencies r in
            p.lats <- min (Array.length lats) p.w.Workload.ops;
            Array.blit lats 0 lat_buf (k * p.w.Workload.ops) p.lats
        | Some r, Some s when Runner.fingerprint p.w r <> s.fingerprint ->
            t.failed <- t.failed + p.w.Workload.ops;
            t.failures <- "measured run: simulated fingerprint changed between runs" :: t.failures
        | _ -> ()
      done);
  let heap_mb = float_of_int !heap *. 8e-6 in
  let n_runs = List.length !samples in
  (* Host times in seconds of the sizing host: medians of the normalised
     samples. The raw medians are printed beside them. *)
  let raw_wall = median (List.map (fun (r, _, _) -> r) !samples) in
  let raw_setup = median (List.map fst !setups) in
  let host =
    [
      m "host_wall_s" "s" (median (List.map (fun (_, s, _) -> s) !samples));
      m "host_alloc_mwords" "Mwords" (median (List.map (fun (_, _, a) -> a) !samples) *. 1e-6);
      m "host_peak_heap_mb" "MB" heap_mb;
      m "setup_s" "s" (median (List.map snd !setups));
    ]
  in
  let notes =
    [
      Printf.sprintf "host_wall_s: median of %d measured runs over %d plan(s): raw %.6f s" n_runs
        (Array.length plans) raw_wall;
      Printf.sprintf "host speed: median index %.4f over %d run brackets" (median !speeds)
        (List.length !speeds);
      Printf.sprintf "host_alloc_mwords: median of %d measured runs" n_runs;
      Printf.sprintf "setup_s: median of %d set-ups after one warm-up: raw %.9f s"
        (List.length !setups) raw_setup;
    ]
  in
  let firsts = Array.to_list plans |> List.filter_map (fun p -> p.first) in
  let result ~metrics ~saturated ~notes =
    {
      workload = w;
      metrics;
      attempted = t.attempted;
      failed = t.failed;
      failures = List.rev t.failures;
      saturated;
      fingerprint =
        (if firsts = [] then Obs.Json.Null
         else Obs.Json.List (List.map (fun s -> s.fingerprint) firsts));
      notes;
    }
  in
  if List.length firsts < Array.length plans then result ~metrics:host ~saturated:false ~notes
  else
    let sim =
      [
        m "sim_elapsed_s" "s" (mean (fun s -> s.elapsed_us) firsts *. 1e-6);
        m "sim_traffic_mb" "MB" (mean (fun s -> float_of_int s.traffic_bytes) firsts *. 1e-6);
        m "sim_proto_mem_kb" "KB" (mean (fun s -> float_of_int s.proto_mem_peak) firsts *. 1e-3);
      ]
    in
    match Workload.offered_rate w with
    | None ->
        (* LU: one run is one op; its latency is the parallel time, and one
           factorization at a time is all the machine serves. *)
        let e = (List.hd firsts).elapsed_us in
        result ~saturated:false
          ~notes:(notes @ [ "serve_*: one run is one op (the factorization)" ])
          ~metrics:
            (host @ sim
            @ [
                m "serve_p50_ms" "ms" (e *. 1e-3);
                m "serve_p99_ms" "ms" (e *. 1e-3);
                m "serve_p999_ms" "ms" (e *. 1e-3);
                m "serve_achieved_ops_s" "ops/s" (1e6 /. e);
                m "serve_capacity_ops_s" "ops/s" (1e6 /. e);
              ])
    | Some offered ->
        let s =
          Serve.of_latencies ~offered
            ~elapsed_s:(List.fold_left (fun a s -> a +. (s.elapsed_us *. 1e-6)) 0. firsts)
            (Array.concat
               (List.mapi (fun k p -> Array.sub lat_buf (k * w.Workload.ops) p.lats)
                  (Array.to_list plans)))
        in
        let capacity, cap_note =
          if s.Serve.saturated then (0., "serve_capacity_ops_s: not searched (saturated)")
          else
            Spans.with_ "capacity" (fun () ->
                let w0 = plans.(0).w in
                match capacity t ?digest:plans.(0).digest w0 ~offered with
                | Some (cap, probes) ->
                    ( cap,
                      Printf.sprintf "serve_capacity_ops_s: plan 0, %d probe runs of %d ops" probes
                        w0.Workload.ops )
                | None -> (0., "serve_capacity_ops_s: search stopped by a failed probe"))
        in
        let percentiles =
          (* A saturated run's percentiles measure its backlog: withheld. *)
          if s.Serve.saturated then []
          else
            [
              m "serve_p50_ms" "ms" (s.Serve.p50_us *. 1e-3);
              m "serve_p99_ms" "ms" (s.Serve.p99_us *. 1e-3);
              m "serve_p999_ms" "ms" (s.Serve.p999_us *. 1e-3);
            ]
        in
        result ~saturated:s.Serve.saturated
          ~notes:
            (notes
            @ [
                Printf.sprintf
                  "serve_*: %d ops pooled over %d plans, offered %.0f ops/s, verdict %s"
                  s.Serve.ops (List.length firsts) offered (Serve.verdict s);
                cap_note;
              ])
          ~metrics:
            (host @ sim @ percentiles
            @ [
                m "serve_achieved_ops_s" "ops/s" s.Serve.achieved;
                m "serve_capacity_ops_s" "ops/s" capacity;
              ])

(* ---------------------------------------------------------------- *)
(* Per-layer                                                         *)

(* GC time from Runtime_events: the outermost runtime phases of the
   current domain, summed. The ring file holds one ring per possible
   domain (128), so run.sh keeps each ring small (OCAMLRUNPARAM e=12:
   4 Ki words, a 4 MB file) and [around] drains it from a timer while the
   run goes on, not only before and after. *)
module Rte = struct
  let cursor = lazy (Runtime_events.start (); Runtime_events.create_cursor None)

  let poll_interval = 0.002

  let depth = ref 0

  let opened = ref 0L

  let busy_ns = ref 0L

  let lost = ref 0

  (* events lost inside [around] windows; losses between them (the
     untraced runs go undrained) do not touch the figure *)
  let lost_in_runs = ref 0

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ ts _ ->
        if !depth = 0 then opened := Runtime_events.Timestamp.to_int64 ts;
        incr depth)
      ~runtime_end:(fun _ ts _ ->
        if !depth > 0 then begin
          decr depth;
          if !depth = 0 then
            busy_ns :=
              Int64.add !busy_ns (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !opened)
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  (* A timer tick can land while the cursor is being read; it then skips. *)
  let polling = ref false

  let poll () =
    if not !polling then begin
      polling := true;
      Fun.protect
        ~finally:(fun () -> polling := false)
        (fun () -> ignore (Runtime_events.read_poll (Lazy.force cursor) callbacks None))
    end

  let arm s = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = s; it_value = s })

  (* Runtime busy seconds spent inside [f]. *)
  let around f =
    poll ();
    (* the mutator is running, so no phase is open; one may look open if
       its end was lost before the window *)
    depth := 0;
    let b0 = !busy_ns and l0 = !lost in
    (* the handler stays installed, so a tick still pending after the
       timer is stopped only polls *)
    Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> poll ()));
    arm poll_interval;
    let v = Fun.protect ~finally:(fun () -> arm 0.) f in
    poll ();
    lost_in_runs := !lost_in_runs + (!lost - l0);
    (v, Int64.to_float (Int64.sub !busy_ns b0) *. 1e-9)
end

(* The trace restricted to the measured window [finish - elapsed, finish],
   times shifted to start at 0 and earlier events clamped to 0 (so
   message pairing is kept). Critical-path blame over it telescopes to
   exactly the report's elapsed time. *)
let window_sink sink ~elapsed =
  let finish = ref 0. in
  Obs.Trace.iter sink (fun ev -> if ev.Obs.Trace.time > !finish then finish := ev.Obs.Trace.time);
  let lo = !finish -. elapsed in
  let out = Obs.Trace.create_sink ~capacity:(max 1 (Obs.Trace.length sink)) () in
  Obs.Trace.iter sink (fun ev ->
      match ev.Obs.Trace.kind with
      | Obs.Trace.Wait_begin _ | Obs.Trace.Wait_end _ | Obs.Trace.Msg_send _ | Obs.Trace.Msg_recv _
        ->
          Obs.Trace.emit out { ev with Obs.Trace.time = Float.max 0. (ev.Obs.Trace.time -. lo) }
      | _ -> ());
  out

let trace_cap = 4_000_000

let per_layer ?(scale = Workload.Bench) (w : Workload.t) =
  let t = tally () in
  let digest = verified t w in
  let cfg = w.Workload.cfg in
  let np = cfg.Svm.Config.nprocs in
  (* Untraced and traced runs alternate, so drift on a shared host does not
     land on one side; Runtime_events is on for the traced ones. *)
  let traced_cfg = { cfg with Svm.Config.trace_spans = true } in
  ignore (record t w "untraced warm-up" (Runner.run ?expect_digest:digest w));
  let pairs =
    List.init 3 (fun i ->
        Gc.full_major ();
        let g0 = Gc.quick_stat () in
        let plain =
          record t w "untraced run"
            (Spans.with_ "untraced run" (fun () -> Runner.run ?expect_digest:digest w))
        in
        let g1 = Gc.quick_stat () in
        Gc.full_major ();
        let sink = Obs.Trace.create_sink ~capacity:trace_cap () in
        let traced, gc_s =
          Rte.around (fun () ->
              record t w "traced run"
                (Spans.with_ "traced run" (fun () ->
                     Runner.run ~sink ~cfg:traced_cfg ?expect_digest:digest w)))
        in
        (* only the last trace is analysed; earlier sinks are dropped *)
        ((plain, g0, g1), (traced, gc_s, if i = 2 then Some sink else None)))
  in
  let untraced = List.map fst pairs and traced = List.map snd pairs in
  let wall runs = median (List.map (fun (r : Runner.run) -> r.Runner.wall_s) runs) in
  let untraced_wall = wall (List.map (fun (r, _, _) -> r) untraced) in
  let traced_wall = wall (List.map (fun (r, _, _) -> r) traced) in
  let gc_frac =
    let busy = List.fold_left (fun a (_, g, _) -> a +. g) 0. traced in
    let walls = List.fold_left (fun a ((r : Runner.run), _, _) -> a +. r.Runner.wall_s) 0. traced in
    busy /. walls
  in
  let run0, g0, g1 = List.hd untraced in
  match (run0.Runner.report, List.nth traced 2) with
  | Some plain, ({ Runner.report = Some r; _ }, _, Some sink) ->
      if Runner.fingerprint w plain <> Runner.fingerprint w r then begin
        t.failed <- t.failed + w.Workload.ops;
        t.failures <- "traced run: simulated fingerprint differs from untraced" :: t.failures
      end;
      let sumc f = Runner.sum_counters f r in
      let sumb f =
        Array.fold_left (fun a n -> a +. f n.Svm.Runtime.nr_breakdown) 0. r.Svm.Runtime.r_nodes
        *. 1e-6
      in
      let diffs = ref 0 and diff_words = ref 0 and applies = ref 0 in
      Obs.Trace.iter sink (fun ev ->
          match ev.Obs.Trace.kind with
          | Obs.Trace.Diff_create { words; _ } ->
              incr diffs;
              diff_words := !diff_words + words
          | Obs.Trace.Diff_apply _ -> incr applies
          | _ -> ());
      let mean_words = if !diffs > 0 then float_of_int !diff_words /. float_of_int !diffs else 0. in
      let elapsed = r.Svm.Runtime.r_elapsed in
      let cp =
        Spans.with_ "critical-path" (fun () ->
            Obs.Critical_path.analyze ~finish:elapsed (window_sink sink ~elapsed))
      in
      let probe name f = Spans.with_ ("probe " ^ name) f in
      (* Probe sizes: ~50 ms each at bench scale, tiny in tests. *)
      let n x = match scale with Workload.Bench -> x | Workload.Test -> max 2 (x / 200) in
      let read_hit, write_hit =
        probe "api hits" (fun () -> Probes.api_hits cfg ~n:(n 2_000_000))
      in
      let write_fault =
        probe "api write faults" (fun () -> Probes.api_write_faults cfg ~pages:(n 64) ~rounds:(n 8))
      in
      let miss =
        probe "read misses" (fun () -> Probes.read_misses cfg ~pages:(n 64) ~rounds:(n 8))
      in
      let handoff = probe "lock handoffs" (fun () -> Probes.lock_handoffs cfg ~per_node:(n 100)) in
      let dcreate, dapply =
        probe "diff" (fun () ->
            Probes.diff ~page_words:cfg.Svm.Config.page_words
              ~dirty:(int_of_float (Float.round mean_words))
              ~n:(n 20_000))
      in
      let ev = probe "engine" (fun () -> Probes.engine ~depth:(4 * np) ~n:(n 1_000_000)) in
      let send = probe "transport" (fun () -> Probes.transport cfg ~n:(n 40_000)) in
      let tp =
        match w.Workload.kv with
        | Some p -> p.Apps.Kvstore.traffic
        | None ->
            (Workload.kv_params scale ~seed:w.Workload.seed ~write_ratio:0.2).Apps.Kvstore.traffic
      in
      let op = probe "traffic" (fun () -> Probes.traffic tp ~n:(n 200_000)) in
      let emit = probe "trace emit" (fun () -> Probes.trace_emit ~n:(n 200_000)) in
      let messages = Svm.Runtime.total_messages r in
      let retransmits = sumc (fun c -> c.Svm.Stats.msg_retransmits) in
      let i name unit_ v = m name unit_ (float_of_int v) in
      let metrics =
        [
          m "api.read_ns" "ns" read_hit.Probes.ns;
          m "api.read_words" "words" read_hit.Probes.words;
          m "api.write_ns" "ns" write_hit.Probes.ns;
          m "api.write_words" "words" write_hit.Probes.words;
          m "api.write_fault_ns" "ns" write_fault.Probes.ns;
          i "faults.read_misses" "count" (sumc (fun c -> c.Svm.Stats.read_misses));
          i "faults.write_faults" "count" (sumc (fun c -> c.Svm.Stats.write_faults));
          i "faults.page_fetches" "count" (sumc (fun c -> c.Svm.Stats.page_fetches));
          i "faults.remote_acquires" "count" (sumc (fun c -> c.Svm.Stats.remote_acquires));
          i "faults.barriers" "count" (sumc (fun c -> c.Svm.Stats.barriers));
          i "faults.gc_runs" "count" (sumc (fun c -> c.Svm.Stats.gc_runs));
          m "faults.compute_s" "s" (sumb (fun b -> b.Svm.Stats.compute));
          m "faults.data_wait_s" "s" (sumb (fun b -> b.Svm.Stats.data));
          m "faults.lock_wait_s" "s" (sumb (fun b -> b.Svm.Stats.lock));
          m "faults.barrier_wait_s" "s" (sumb (fun b -> b.Svm.Stats.barrier));
          m "faults.protocol_s" "s" (sumb (fun b -> b.Svm.Stats.protocol));
          m "faults.gc_s" "s" (sumb (fun b -> b.Svm.Stats.gc));
          m "faults.read_miss_ns" "ns" miss.Probes.ns;
          m "faults.read_miss_words" "words" miss.Probes.words;
          m "faults.lock_handoff_ns" "ns" handoff.Probes.ns;
          i "mem.diffs_created" "count" !diffs;
          i "mem.diffs_applied" "count" !applies;
          m "mem.diff_mean_words" "words" mean_words;
          m "mem.diff_create_ns" "ns" dcreate.Probes.ns;
          m "mem.diff_create_words" "words" dcreate.Probes.words;
          m "mem.diff_apply_ns" "ns" dapply.Probes.ns;
          i "sim.events" "count" r.Svm.Runtime.r_events;
          m "sim.event_ns" "ns" ev.Probes.ns;
          m "sim.event_words" "words" ev.Probes.words;
          m "sim.host_ns_per_event" "ns"
            (untraced_wall *. 1e9 /. float_of_int r.Svm.Runtime.r_events);
          i "machine.messages" "count" messages;
          m "machine.update_mb" "MB" (float_of_int (Svm.Runtime.total_update_bytes r) *. 1e-6);
          m "machine.protocol_mb" "MB" (float_of_int (Svm.Runtime.total_protocol_bytes r) *. 1e-6);
          i "machine.drops" "count" (sumc (fun c -> c.Svm.Stats.msg_drops));
          i "machine.retransmits" "count" retransmits;
          i "machine.acks" "count" (sumc (fun c -> c.Svm.Stats.msg_acks));
          i "machine.dup_dropped" "count" (sumc (fun c -> c.Svm.Stats.msg_dup_dropped));
          i "machine.gave_up" "count" (sumc (fun c -> c.Svm.Stats.msg_gave_up));
          m "machine.retransmit_ratio" "ratio"
            (if messages > 0 then float_of_int retransmits /. float_of_int messages else 0.);
          m "machine.send_ns" "ns" send.Probes.ns;
          m "machine.send_words" "words" send.Probes.words;
          m "traffic.op_ns" "ns" op.Probes.ns;
          i "obs.trace_records" "count" (Obs.Trace.length sink);
          i "obs.trace_dropped" "count" (Obs.Trace.dropped sink);
          m "obs.trace_emit_ns" "ns" emit.Probes.ns;
          m "obs.trace_emit_words" "words" emit.Probes.words;
          m "obs.tracing_overhead_frac" "ratio" ((traced_wall -. untraced_wall) /. untraced_wall);
          i "gc.minor_collections" "count" (g1.Gc.minor_collections - g0.Gc.minor_collections);
          i "gc.major_collections" "count" (g1.Gc.major_collections - g0.Gc.major_collections);
          m "gc.promoted_mwords" "Mwords" ((g1.Gc.promoted_words -. g0.Gc.promoted_words) *. 1e-6);
          m "gc.time_frac" "ratio" gc_frac;
          m "cp.local_s" "s" (cp.Obs.Critical_path.cp_local *. 1e-6);
          m "cp.data_s" "s" (cp.Obs.Critical_path.cp_data *. 1e-6);
          m "cp.lock_s" "s" (cp.Obs.Critical_path.cp_lock *. 1e-6);
          m "cp.barrier_s" "s" (cp.Obs.Critical_path.cp_barrier *. 1e-6);
          m "cp.gc_s" "s" (cp.Obs.Critical_path.cp_gc *. 1e-6);
        ]
      in
      let notes =
        [
          Printf.sprintf
            "obs.tracing_overhead_frac: median traced wall %.4f s vs median untraced %.4f s (3 \
             runs each)"
            traced_wall untraced_wall;
          Printf.sprintf "sim.host_ns_per_event: base %d events" r.Svm.Runtime.r_events;
          Printf.sprintf "machine.retransmit_ratio: base %d messages" messages;
          Printf.sprintf "gc.time_frac: runtime phases over %d traced runs (%d events lost)" 3
            !Rte.lost_in_runs;
          Printf.sprintf "cp.*: sum %.6f s over sim_elapsed_s %.6f s"
            ((cp.Obs.Critical_path.cp_local +. cp.Obs.Critical_path.cp_data
            +. cp.Obs.Critical_path.cp_lock +. cp.Obs.Critical_path.cp_barrier
            +. cp.Obs.Critical_path.cp_gc)
            *. 1e-6)
            (elapsed *. 1e-6);
          Printf.sprintf "probe witnesses: reads %d, writes %d, write faults %d/%d, misses %d/%d, \
                          lock acquires %d (%d remote), diffs %d, events %d, sends %d, ops %d, \
                          records %d"
            read_hit.Probes.calls write_hit.Probes.calls write_fault.Probes.calls
            write_fault.Probes.units miss.Probes.calls miss.Probes.units handoff.Probes.calls
            handoff.Probes.units dcreate.Probes.calls ev.Probes.calls send.Probes.calls
            op.Probes.calls emit.Probes.calls;
        ]
      in
      {
        workload = w;
        metrics;
        attempted = t.attempted;
        failed = t.failed;
        failures = List.rev t.failures;
        saturated = false;
        fingerprint = Runner.fingerprint w r;
        notes;
      }
  | _ ->
      {
        workload = w;
        metrics = [];
        attempted = t.attempted;
        failed = t.failed;
        failures = List.rev t.failures;
        saturated = false;
        fingerprint = Obs.Json.Null;
        notes = [];
      }
