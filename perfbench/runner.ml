(* One checked call into [Svm.Runtime.run], timed from outside. *)

let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

type run = {
  report : Svm.Runtime.report option;  (** [None] when the run raised. *)
  wall_s : float;  (** Host seconds inside [Runtime.run]. *)
  alloc_words : float;  (** Minor words allocated inside it. *)
  peak_heap_words : int;
      (** Largest major heap seen inside it: sampled at the end of each
          major cycle and when the run returns. *)
  failure : string option;  (** Why the run failed its checks. *)
}

let sum_counters f (r : Svm.Runtime.report) =
  Array.fold_left (fun acc n -> acc + f n.Svm.Runtime.nr_counters) 0 r.Svm.Runtime.r_nodes

let completed_ops (w : Workload.t) (r : Svm.Runtime.report) =
  match (r.Svm.Runtime.r_ops, w.Workload.kv) with
  | Some o, _ -> Array.length o.Svm.Runtime.or_lats
  | None, None -> 1 (* LU: the run is the op *)
  | None, Some _ -> 0

let check ?expect_digest (r : Svm.Runtime.report) =
  let gave_up =
    match r.Svm.Runtime.r_transport with Some t -> t.Svm.Runtime.tr_gave_up | None -> 0
  in
  if gave_up > 0 then Some (Printf.sprintf "transport gave up on %d packets" gave_up)
  else
    match expect_digest with
    | Some d when d <> r.Svm.Runtime.r_mem_digest ->
        Some
          (Printf.sprintf "final-memory digest %016Lx, expected %016Lx" r.Svm.Runtime.r_mem_digest
             d)
    | _ -> None

(* [verify] runs the app's own check against its sequential reference or
   plan replay (it raises on a mismatch); [expect_digest] compares the
   final memory with a run already known to be right. *)
let run ?sink ?(verify = false) ?expect_digest ?cfg (w : Workload.t) =
  let cfg = Option.value cfg ~default:w.Workload.cfg in
  let peak = ref 0 in
  let sample () = peak := max !peak (Gc.quick_stat ()).Gc.heap_words in
  let alarm = Gc.create_alarm sample in
  let m0 = Gc.minor_words () in
  let t0 = now_ns () in
  let result = try Ok (Svm.Runtime.run ?sink cfg (w.Workload.body ~verify)) with e -> Error e in
  let wall_s = seconds_since t0 in
  let alloc_words = Gc.minor_words () -. m0 in
  sample ();
  Gc.delete_alarm alarm;
  let finish report failure = { report; wall_s; alloc_words; peak_heap_words = !peak; failure } in
  match result with
  | Error e -> finish None (Some (Printexc.to_string e))
  | Ok r -> finish (Some r) (check ?expect_digest r)

(* A failed check fails every op of the run; otherwise only ops that
   never completed count. *)
let failed_ops (w : Workload.t) run =
  match (run.failure, run.report) with
  | None, Some r -> w.Workload.ops - completed_ops w r
  | _ -> w.Workload.ops

(* The simulated outcome of a run: identical across hosts and host-only
   changes for a fixed seed, so two commits can be compared on it. *)
let fingerprint (w : Workload.t) (r : Svm.Runtime.report) =
  let c f = Obs.Json.Int (sum_counters f r) in
  Obs.Json.Obj
    [
      ("events", Obs.Json.Int r.Svm.Runtime.r_events);
      ("elapsed_us", Obs.Json.Float r.Svm.Runtime.r_elapsed);
      ("digest", Obs.Json.String (Printf.sprintf "%016Lx" r.Svm.Runtime.r_mem_digest));
      ("ops", Obs.Json.Int (completed_ops w r));
      ("messages", Obs.Json.Int (Svm.Runtime.total_messages r));
      ("update_bytes", Obs.Json.Int (Svm.Runtime.total_update_bytes r));
      ("protocol_bytes", Obs.Json.Int (Svm.Runtime.total_protocol_bytes r));
      ("proto_mem_peak", Obs.Json.Int (Svm.Runtime.max_mem_peak r));
      ("read_misses", c (fun c -> c.Svm.Stats.read_misses));
      ("write_faults", c (fun c -> c.Svm.Stats.write_faults));
      ("diffs_created", c (fun c -> c.Svm.Stats.diffs_created));
      ("diffs_applied", c (fun c -> c.Svm.Stats.diffs_applied));
      ("page_fetches", c (fun c -> c.Svm.Stats.page_fetches));
      ("remote_acquires", c (fun c -> c.Svm.Stats.remote_acquires));
      ("barriers", c (fun c -> c.Svm.Stats.barriers));
      ("gc_runs", c (fun c -> c.Svm.Stats.gc_runs));
      ("drops", c (fun c -> c.Svm.Stats.msg_drops));
      ("retransmits", c (fun c -> c.Svm.Stats.msg_retransmits));
    ]
