(* Unit-cost probes: each calls one layer's public functions in a loop
   shaped like a workload and reports host nanoseconds and minor words per
   unit. [calls] is counted by a witness independent of the loop counter
   where the layer offers one (executed events, stored trace records,
   delivered payloads, protocol counters). *)

type t = {
  calls : int;  (** Calls made, as witnessed. *)
  units : int;  (** Units the cost is divided by (usually [calls]). *)
  ns : float;  (** Host ns per unit. *)
  words : float;  (** Minor words per unit. *)
}

(* [f] makes the calls and returns how many it witnessed. *)
let timed f =
  let m0 = Gc.minor_words () in
  let t0 = Runner.now_ns () in
  let calls = f () in
  let ns = Runner.seconds_since t0 *. 1e9 in
  let words = Gc.minor_words () -. m0 in
  let per x = if calls > 0 then x /. float_of_int calls else 0. in
  { calls; units = calls; ns = per ns; words = per words }

(* ---------- api: the word-access path, inside a simulated run --------- *)

(* Read and write hits on 4 pages homed at node 0, already valid and
   writable there. *)
let api_hits (cfg : Svm.Config.t) ~n =
  let read = ref None and write = ref None in
  let body ctx =
    let pw = Svm.Api.page_words ctx in
    let words = 4 * pw in
    if Svm.Api.pid ctx = 0 then
      ignore (Svm.Api.malloc ctx ~name:"probe" ~home:(fun _ -> 0) words);
    Svm.Api.barrier ctx;
    if Svm.Api.pid ctx = 0 then begin
      let a = Svm.Api.root ctx "probe" in
      for i = 0 to words - 1 do
        Svm.Api.write ctx (a + i) 1.0
      done;
      let reps = max 1 (n / words) in
      write :=
        Some
          (timed (fun () ->
               for _ = 1 to reps do
                 for i = 0 to words - 1 do
                   Svm.Api.write ctx (a + i) 1.0
                 done
               done;
               reps * words));
      read :=
        Some
          (timed (fun () ->
               let sum = ref 0. in
               for _ = 1 to reps do
                 for i = 0 to words - 1 do
                   sum := !sum +. Svm.Api.read ctx (a + i)
                 done
               done;
               (* every word holds 1.0: the sum witnesses the reads *)
               int_of_float !sum))
    end;
    Svm.Api.barrier ctx
  in
  ignore (Svm.Runtime.run cfg body);
  (Option.get !read, Option.get !write)

(* First write to a valid read-only page, homed at node 1: twin plus
   protocol. Each round writes every page once, then a barrier releases
   them. [calls] is the window's write-fault counter. *)
let api_write_faults (cfg : Svm.Config.t) ~pages ~rounds =
  let ns = ref 0. and words = ref 0. in
  let body ctx =
    let pw = Svm.Api.page_words ctx and np = Svm.Api.nprocs ctx in
    if Svm.Api.pid ctx = 0 then
      ignore (Svm.Api.malloc ctx ~name:"probe" ~home:(fun _ -> 1 mod np) (pages * pw));
    Svm.Api.barrier ctx;
    let a = Svm.Api.root ctx "probe" in
    if Svm.Api.pid ctx = 0 then
      for p = 0 to pages - 1 do
        ignore (Svm.Api.read ctx (a + (p * pw)))
      done;
    Svm.Api.barrier ctx;
    Svm.Api.start_timing ctx;
    for r = 1 to rounds do
      if Svm.Api.pid ctx = 0 then begin
        let t =
          timed (fun () ->
              for p = 0 to pages - 1 do
                Svm.Api.write ctx (a + (p * pw)) (float_of_int r)
              done;
              pages)
        in
        ns := !ns +. (t.ns *. float_of_int pages);
        words := !words +. (t.words *. float_of_int pages)
      end;
      Svm.Api.barrier ctx
    done
  in
  let r = Svm.Runtime.run cfg body in
  let calls = Runner.sum_counters (fun c -> c.Svm.Stats.write_faults) r in
  let units = pages * rounds in
  { calls; units; ns = !ns /. float_of_int units; words = !words /. float_of_int units }

(* Read miss on a page node 1 (its home) wrote since node 0's last
   access: invalidation, fetch or diff request, and the engine events
   that serve it, timed around node 0's [Api.read] while the other nodes
   wait at the barrier. [calls] is node 0's read-miss counter. *)
let read_misses (cfg : Svm.Config.t) ~pages ~rounds =
  let ns = ref 0. and words = ref 0. in
  let body ctx =
    let pw = Svm.Api.page_words ctx and np = Svm.Api.nprocs ctx in
    let me = Svm.Api.pid ctx in
    if me = 0 then ignore (Svm.Api.malloc ctx ~name:"probe" ~home:(fun _ -> 1 mod np) (pages * pw));
    Svm.Api.barrier ctx;
    let a = Svm.Api.root ctx "probe" in
    Svm.Api.start_timing ctx;
    for r = 1 to rounds do
      if me = 1 mod np then
        for p = 0 to pages - 1 do
          Svm.Api.write ctx (a + (p * pw)) (float_of_int r)
        done;
      Svm.Api.barrier ctx;
      if me = 0 then begin
        let t =
          timed (fun () ->
              let sum = ref 0. in
              for p = 0 to pages - 1 do
                sum := !sum +. Svm.Api.read ctx (a + (p * pw))
              done;
              if !sum <> float_of_int (pages * r) then failwith "read-miss probe: stale read";
              pages)
        in
        ns := !ns +. (t.ns *. float_of_int pages);
        words := !words +. (t.words *. float_of_int pages)
      end;
      Svm.Api.barrier ctx
    done
  in
  let r = Svm.Runtime.run cfg body in
  let calls = r.Svm.Runtime.r_nodes.(0).Svm.Runtime.nr_counters.Svm.Stats.read_misses in
  let units = pages * rounds in
  { calls; units; ns = !ns /. float_of_int units; words = !words /. float_of_int units }

(* Every node takes lock 0 [per_node] times with a little work inside and
   between: host cost per remote acquire (a lock handoff), timed by node 0
   from the start barrier to the end barrier. [calls] is the window's
   lock-acquire counter; [units] its remote acquires. *)
let lock_handoffs (cfg : Svm.Config.t) ~per_node =
  let elapsed = ref 0. in
  let body ctx =
    Svm.Api.barrier ctx;
    Svm.Api.start_timing ctx;
    let t0 = Runner.now_ns () in
    for _ = 1 to per_node do
      Svm.Api.lock ctx 0;
      Svm.Api.compute ctx 1.;
      Svm.Api.unlock ctx 0;
      Svm.Api.compute ctx 5.
    done;
    Svm.Api.barrier ctx;
    if Svm.Api.pid ctx = 0 then elapsed := Runner.seconds_since t0
  in
  let m0 = Gc.minor_words () in
  let r = Svm.Runtime.run cfg body in
  let words = Gc.minor_words () -. m0 in
  let calls = Runner.sum_counters (fun c -> c.Svm.Stats.lock_acquires) r in
  let units = Runner.sum_counters (fun c -> c.Svm.Stats.remote_acquires) r in
  let per x = if units > 0 then x /. float_of_int units else 0. in
  { calls; units; ns = per (!elapsed *. 1e9); words = per words }

(* ---------- mem: diffs at the workload's dirty-word count ------------- *)

let diff ~page_words ~dirty ~n =
  let dirty = max 1 (min dirty page_words) in
  let twin = Mem.Words.make page_words in
  let current = Mem.Words.copy twin in
  let stride = page_words / dirty in
  for i = 0 to dirty - 1 do
    Mem.Words.set current (i * stride) (float_of_int (i + 1))
  done;
  let last = ref (Mem.Diff.create ~page:0 ~twin ~current) in
  let create =
    timed (fun () ->
        let ok = ref 0 in
        for _ = 1 to n do
          last := Mem.Diff.create ~page:0 ~twin ~current;
          if Mem.Diff.word_count !last = dirty then incr ok
        done;
        !ok)
  in
  let dst = Mem.Words.make page_words in
  let apply =
    timed (fun () ->
        for _ = 1 to n do
          Mem.Diff.apply !last dst
        done;
        if Mem.Words.get dst ((dirty - 1) * stride) = float_of_int dirty then n else 0)
  in
  (create, apply)

(* ---------- sim: the event core at a pending depth ------------------- *)

(* [depth] events stay pending; each executed event schedules a fresh
   closure a pseudo-random distance ahead, as the simulator does. [calls]
   is the engine's executed-event counter. *)
let engine ~depth ~n =
  let e = Sim.Engine.create ~capacity:(2 * depth) () in
  let gaps = Array.init 64 (fun i -> 0.5 +. float_of_int ((i * 37) mod 61)) in
  let rec event k () =
    Sim.Engine.schedule e ~at:(Sim.Engine.now e +. gaps.(k land 63)) (event (k + 1))
  in
  for i = 0 to depth - 1 do
    Sim.Engine.schedule e ~at:(float_of_int i) (event i)
  done;
  let x0 = Sim.Engine.executed e in
  timed (fun () ->
      for _ = 1 to n do
        ignore (Sim.Engine.step e)
      done;
      Sim.Engine.executed e - x0)

(* ---------- machine: reliable transport under the workload's plan ---- *)

(* [n] payloads, one per node per round, each timed from [Transport.send]
   to in-order delivery (acks, timers and retransmissions included).
   [calls] counts delivered payloads. *)
let transport (cfg : Svm.Config.t) ~n =
  let np = cfg.Svm.Config.nprocs in
  let engine = Sim.Engine.create () in
  let net = Machine.Network.create ~costs:cfg.Svm.Config.costs ~nprocs:np in
  let chaos = Machine.Chaos.create cfg.Svm.Config.chaos ~nprocs:np in
  let tr = Machine.Transport.create ~engine ~net ~chaos ~notify:(fun ~time:_ _ -> ()) () in
  let delivered = ref 0 in
  let handler _ = incr delivered in
  timed (fun () ->
      let rounds = max 1 (n / np) in
      for r = 0 to rounds - 1 do
        let at = Sim.Engine.now engine in
        for src = 0 to np - 1 do
          let dst = (src + 1 + (r mod (np - 1))) mod np in
          Machine.Transport.send tr ~src ~dst ~at ~bytes:128 handler
        done;
        ignore (Sim.Engine.run engine)
      done;
      !delivered)

(* ---------- traffic and obs ------------------------------------------ *)

let traffic (tp : Traffic.params) ~n =
  let z = Sim.Rng.zipf_create ~n:tp.Traffic.keys ~theta:tp.Traffic.theta in
  timed (fun () ->
      let count = ref 0 in
      for j = 0 to n - 1 do
        match Traffic.op_at tp z j with
        | Traffic.Get _ | Traffic.Put _ | Traffic.Txn _ -> incr count
      done;
      !count)

let trace_emit ~n =
  let sink = Obs.Trace.create_sink ~capacity:n () in
  timed (fun () ->
      for i = 0 to n - 1 do
        Obs.Trace.emit sink
          {
            Obs.Trace.time = float_of_int i;
            node = i land 7;
            kind = Obs.Trace.Msg_send { dst = (i + 1) land 7; bytes = 64; update = 0 };
          }
      done;
      Obs.Trace.length sink)
