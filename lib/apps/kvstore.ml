(* Sharded key-value store: a serving workload (not a Splash-2 kernel).

   The table is a hash table whose buckets are sharded across the nodes as
   SVM pages — bucket [b] is exactly one page, homed at node [b mod nprocs],
   which is also the manager of lock [b], so bucket ownership moves with
   the lock handoff (the IronFleet sharded-hash-table design: whoever holds
   the lock owns the shard and mutates it locally). Key [k] lives in bucket
   [k mod buckets] at slot [k / buckets]; a cell is two words:

     word 0: put count      (a put increments it)
     word 1: transfer delta (a transaction moves one unit src -> dst)

   Both update kinds commute, and transactions acquire their two bucket
   locks in ascending order (deadlock-free), so the final memory is a pure
   function of the op multiset: the digest is identical under any chaos
   interleaving and matches the fault-free twin — exactly what the
   differential soaks require.

   Traffic is open-loop (see [Traffic]): operation [j] of the global
   Zipfian stream arrives at a fixed time whether or not earlier ops have
   completed, and node [j mod nprocs] executes it. Per-op latency is
   completion minus scheduled arrival, so queueing delay from a saturated
   node counts, as it should in a serving benchmark. *)

type params = {
  buckets : int;  (* one SVM page per bucket *)
  op_us : float;  (* simulated CPU cost of one operation's local work *)
  traffic : Traffic.params;
}

let default =
  {
    buckets = 64;
    op_us = 0.5;
    traffic =
      {
        Traffic.ops = 2000;
        rate = 100_000.;
        keys = 4096;
        theta = 0.9;
        write_ratio = 0.2;
        txn_ratio = 0.1;
        seed = 11;
      };
  }

let name = "kvstore"

let bucket_of p key = key mod p.buckets

let slot_of p key = key / p.buckets

(* Sequential reference: replay the whole plan into per-key (count, delta)
   accumulators. Commutativity makes replay order irrelevant. *)
let reference p =
  let tp = p.traffic in
  let counts = Array.make tp.Traffic.keys 0 in
  let deltas = Array.make tp.Traffic.keys 0 in
  let z = Sim.Rng.zipf_create ~n:tp.Traffic.keys ~theta:tp.Traffic.theta in
  for j = 0 to tp.Traffic.ops - 1 do
    match Traffic.op_at tp z j with
    | Traffic.Get _ -> ()
    | Traffic.Put k -> counts.(k) <- counts.(k) + 1
    | Traffic.Txn (src, dst) ->
        deltas.(src) <- deltas.(src) - 1;
        deltas.(dst) <- deltas.(dst) + 1
  done;
  (counts, deltas)

let validate p =
  Traffic.validate p.traffic;
  if p.buckets < 1 then invalid_arg "Kvstore: buckets must be >= 1";
  if p.op_us < 0. then invalid_arg "Kvstore: op_us must be >= 0"

let body ?(verify = true) p ctx =
  validate p;
  let tp = p.traffic in
  let page_words = Svm.Api.page_words ctx in
  let slots = (tp.Traffic.keys + p.buckets - 1) / p.buckets in
  if 2 * slots > page_words then
    invalid_arg
      (Printf.sprintf "Kvstore.body: %d keys / %d buckets need %d words per page (have %d)"
         tp.Traffic.keys p.buckets (2 * slots) page_words);
  let me = Svm.Api.pid ctx and np = Svm.Api.nprocs ctx in
  if me = 0 then
    (* One page per bucket, homed at the bucket's lock manager so lock
       handoff and page ownership travel together. Pages start zeroed;
       no init pass needed. *)
    ignore
      (Svm.Api.malloc ctx ~name:"kv.buckets"
         ~home:(fun page -> page mod np)
         (p.buckets * page_words));
  Svm.Api.barrier ctx;
  Svm.Api.start_timing ctx;
  let base = Svm.Api.root ctx "kv.buckets" in
  let cell b slot = base + (b * page_words) + (2 * slot) in
  let t0 = Svm.Api.now ctx in
  let get key =
    let b = bucket_of p key in
    Svm.Api.lock ctx b;
    let _count = Svm.Api.read_int ctx (cell b (slot_of p key)) in
    let _delta = Svm.Api.read_int ctx (cell b (slot_of p key) + 1) in
    Svm.Api.compute ctx p.op_us;
    Svm.Api.unlock ctx b
  in
  let put key =
    let b = bucket_of p key in
    let a = cell b (slot_of p key) in
    Svm.Api.lock ctx b;
    Svm.Api.write_int ctx a (Svm.Api.read_int ctx a + 1);
    Svm.Api.compute ctx p.op_us;
    Svm.Api.unlock ctx b
  in
  let txn src dst =
    (* Ordered acquire, then a local atomic step on both shards. *)
    let bs = bucket_of p src and bd = bucket_of p dst in
    let b1 = min bs bd and b2 = max bs bd in
    Svm.Api.lock ctx b1;
    if b2 <> b1 then Svm.Api.lock ctx b2;
    let asrc = cell bs (slot_of p src) + 1 and adst = cell bd (slot_of p dst) + 1 in
    (* A degenerate self-transfer (single-key space) is a net no-op, as in
       the reference replay. *)
    if dst <> src then begin
      Svm.Api.write_int ctx asrc (Svm.Api.read_int ctx asrc - 1);
      Svm.Api.write_int ctx adst (Svm.Api.read_int ctx adst + 1)
    end;
    Svm.Api.compute ctx p.op_us;
    if b2 <> b1 then Svm.Api.unlock ctx b2;
    Svm.Api.unlock ctx b1
  in
  Traffic.iter_node tp ~node:me ~nodes:np (fun ~index:_ ~at_us op ->
      let issued_at = t0 +. at_us in
      Svm.Api.idle_until ctx issued_at;
      match op with
      | Traffic.Get k ->
          get k;
          Svm.Api.record_op ctx Svm.System.Op_get ~issued_at
      | Traffic.Put k ->
          put k;
          Svm.Api.record_op ctx Svm.System.Op_put ~issued_at
      | Traffic.Txn (src, dst) ->
          txn src dst;
          Svm.Api.record_op ctx Svm.System.Op_txn ~issued_at);
  Svm.Api.barrier ctx;
  if verify && me = 0 then begin
    let counts, deltas = reference p in
    let sum = Array.fold_left ( + ) 0 deltas in
    if sum <> 0 then App_util.failf "kvstore: transfer deltas sum to %d, not 0" sum;
    for key = 0 to tp.Traffic.keys - 1 do
      let b = bucket_of p key and slot = slot_of p key in
      let got_count = Svm.Api.read_int ctx (cell b slot) in
      let got_delta = Svm.Api.read_int ctx (cell b slot + 1) in
      if got_count <> counts.(key) then
        App_util.failf "kvstore: key %d put count %d, expected %d" key got_count counts.(key);
      if got_delta <> deltas.(key) then
        App_util.failf "kvstore: key %d delta %d, expected %d" key got_delta deltas.(key)
    done
  end
