(* Regression tests for protocol bugs found during development. Each test
   distills the scenario that exposed the bug; see the comments for the
   mechanism. *)

let check = Alcotest.check

(* Bug 1: lost write after fault/interval-end race.

   A write fault completed (twin made, page writable); before the process's
   resume event fired, a forwarded lock request ended the interval, which
   write-protected the page and dropped the twin. The resumed process then
   stored into a protected page without re-faulting, so the write was never
   diffed and disappeared from every other copy. Fixed by re-checking
   protection after each fault, like a restarted instruction.

   The trigger needs a remote lock request to land between a write fault's
   completion and its resume, which the lock-chain accumulation pattern
   provokes reliably at P >= 4 under the home-based protocols. *)
let test_fault_retry_race () =
  let n = 96 in
  let app ctx =
    let me = Svm.Api.pid ctx and np = Svm.Api.nprocs ctx in
    if me = 0 then ignore (Svm.Api.malloc ctx ~name:"f" n);
    Svm.Api.barrier ctx;
    let f = Svm.Api.root ctx "f" in
    let lo, hi = Apps.App_util.chunk ~n ~nparts:np me in
    for m = lo to hi - 1 do
      Svm.Api.write ctx (f + m) 0.
    done;
    Svm.Api.barrier ctx;
    for q = 0 to np - 1 do
      let target = (me + q) mod np in
      let qlo, qhi = Apps.App_util.chunk ~n ~nparts:np target in
      Svm.Api.lock ctx target;
      for m = qlo to qhi - 1 do
        Svm.Api.write ctx (f + m) (Svm.Api.read ctx (f + m) +. float_of_int ((me + 1) * (m + 1)))
      done;
      Svm.Api.unlock ctx target
    done;
    Svm.Api.barrier ctx;
    let sum_p = np * (np + 1) / 2 in
    for m = 0 to n - 1 do
      let want = float_of_int (sum_p * (m + 1)) in
      let got = Svm.Api.read ctx (f + m) in
      if got <> want then
        Alcotest.failf "pid %d: f[%d] = %g, want %g (lost update)" me m got want
    done;
    Svm.Api.barrier ctx
  in
  List.iter
    (fun protocol ->
      List.iter
        (fun nprocs -> ignore (Svm.Runtime.run (Svm.Config.make ~nprocs protocol) app))
        [ 4; 8 ])
    [ Svm.Config.Hlrc; Svm.Config.Ohlrc ]

(* Bug 2: write notices dropped when a batch arrived newest-first.

   apply_remote_intervals bumped vt.(creator) at the first (newest) record
   of a batch, making the guard reject the remaining older-but-unseen
   records — their page invalidations were silently skipped, so a reader
   kept using a stale copy. Also: the barrier manager merged arrival
   timestamps before processing other arrivals' records, with the same
   effect. The trigger is a process learning several intervals of one
   creator in a single barrier release — the multi-lock, multi-step
   water-style pattern below at P = 3. *)
let test_notice_batch_ordering () =
  let p = { Apps.Water_nsq.default with molecules = 96; steps = 2 } in
  List.iter
    (fun nprocs ->
      List.iter
        (fun protocol ->
          ignore
            (Svm.Runtime.run
               (Svm.Config.make ~nprocs protocol)
               (Apps.Water_nsq.body ~verify:true p)))
        Svm.Config.all_protocols)
    [ 3; 4 ]

(* Bug 3: keeper lost across garbage collections.

   After a GC, pages with no later writers elected the *allocator* as the
   copyset hint even when an earlier collection had already dropped the
   allocator's copy; the next cold fault then materialized zeros at the
   allocator and returned them. Two collections with disjoint writer sets
   reproduce it. *)
let test_keeper_survives_gc () =
  let app ctx =
    let me = Svm.Api.pid ctx and np = Svm.Api.nprocs ctx in
    let words = 8 * 1024 in
    if me = 0 then ignore (Svm.Api.malloc ctx ~name:"a" words);
    Svm.Api.barrier ctx;
    let a = Svm.Api.root ctx "a" in
    (* Phase 1: node 1 writes everything (becomes last writer of all pages,
       so node 0, the allocator, drops its copies at the next GC). *)
    if me = 1 || np = 1 then
      for i = 0 to words - 1 do
        Svm.Api.write_int ctx (a + i) (i + 7)
      done;
    Svm.Api.barrier ctx;
    (* Churn on a different allocation to force more collections without
       touching [a]. *)
    if me = 0 then ignore (Svm.Api.malloc ctx ~name:"churn" (8 * 1024));
    Svm.Api.barrier ctx;
    let churn = Svm.Api.root ctx "churn" in
    for round = 1 to 3 do
      let lo, hi = Apps.App_util.chunk ~n:(8 * 1024) ~nparts:np me in
      for i = lo to hi - 1 do
        Svm.Api.write_int ctx (churn + i) (round * i)
      done;
      Svm.Api.barrier ctx
    done;
    (* Everyone (including the allocator) must still read phase-1 data. *)
    for i = 0 to words - 1 do
      let got = Svm.Api.read_int ctx (a + i) in
      if got <> i + 7 then Alcotest.failf "pid %d: a[%d] = %d, want %d" me i got (i + 7)
    done;
    Svm.Api.barrier ctx
  in
  let cfg = Svm.Config.make ~gc_threshold_bytes:30_000 ~nprocs:4 Svm.Config.Lrc in
  let r = Svm.Runtime.run cfg app in
  let gc_runs =
    Array.fold_left (fun acc n -> acc + n.Svm.Runtime.nr_counters.Svm.Stats.gc_runs) 0
      r.Svm.Runtime.r_nodes
  in
  check Alcotest.bool "multiple collections actually happened" true (gc_runs >= 8)

(* The linear-extension apply order (vt-sum key): a deep lock chain whose
   diffs all target the same words must resolve to the last holder's
   value. Before the fix, a comparison sort over the partial order could
   invert ordered diffs. *)
let test_deep_chain_apply_order () =
  let nlocks = 3 in
  let region = 8 in
  let rounds = 5 in
  let app ctx =
    let me = Svm.Api.pid ctx and np = Svm.Api.nprocs ctx in
    if me = 0 then ignore (Svm.Api.malloc ctx ~name:"chain" (nlocks * region));
    Svm.Api.barrier ctx;
    let chain = Svm.Api.root ctx "chain" in
    (* Each lock protects its own word region; rounds x nodes of increments
       build a chain of ~40 same-page ordered diffs per region. *)
    for round = 1 to rounds do
      for q = 0 to nlocks - 1 do
        let l = (me + q + round) mod nlocks in
        Svm.Api.lock ctx l;
        for i = l * region to ((l + 1) * region) - 1 do
          Svm.Api.write_int ctx (chain + i) (Svm.Api.read_int ctx (chain + i) + 1)
        done;
        Svm.Api.unlock ctx l
      done
    done;
    Svm.Api.barrier ctx;
    for i = 0 to (nlocks * region) - 1 do
      check Alcotest.int "all increments survive" (rounds * np)
        (Svm.Api.read_int ctx (chain + i))
    done;
    Svm.Api.barrier ctx
  in
  List.iter
    (fun protocol -> ignore (Svm.Runtime.run (Svm.Config.make ~nprocs:8 protocol) app))
    Svm.Config.all_protocols

(* Bug 5: accesses outside the shared space. A read far past a 16-word
   [malloc] returned 0., a write with nothing allocated "succeeded" through
   [home_of]'s fallback for untouched pages, and a read of address -1
   asked the page table to grow to page 2^53 and died with
   [Out_of_memory]. Every accessor now fails on its miss path with a
   one-line [Invalid_argument] naming the address and the allocated range
   (the pages handed out so far). *)
let out_of_range ~what ?(alloc = 0) access =
  let msg = ref None in
  ignore
    (Svm.Runtime.run (Svm.Config.make ~nprocs:1 Svm.Config.Hlrc) (fun ctx ->
         let base = if alloc > 0 then Svm.Api.malloc ctx alloc else 0 in
         try access ctx base with Invalid_argument m -> msg := Some m));
  match !msg with
  | None -> Alcotest.failf "%s: no Invalid_argument" what
  | Some m ->
      check Alcotest.bool (what ^ ": one line") false (String.contains m '\n');
      m

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_read_past_malloc () =
  let pw = (Svm.Config.make ~nprocs:1 Svm.Config.Hlrc).Svm.Config.page_words in
  let m =
    out_of_range ~what:"read past malloc" ~alloc:16 (fun ctx a ->
        ignore (Svm.Api.read ctx (a + 5000)))
  in
  check Alcotest.bool "names the address" true (contains m "5000");
  check Alcotest.bool "names the range" true (contains m (Printf.sprintf "[0, %d)" pw));
  ignore
    (out_of_range ~what:"read_block past malloc" ~alloc:16 (fun ctx a ->
         Svm.Api.read_block ctx ~addr:(a + 8) ~len:6000 (Array.make 6000 0.)))

let test_write_unallocated () =
  let m =
    out_of_range ~what:"write unallocated" (fun ctx _ -> Svm.Api.write ctx 100000 1.)
  in
  check Alcotest.bool "names the address" true (contains m "100000");
  check Alcotest.bool "names the empty range" true (contains m "[0, 0)");
  ignore
    (out_of_range ~what:"write_block unallocated" (fun ctx _ ->
         Svm.Api.write_block ctx ~addr:100000 ~len:2 [| 1.; 2. |]))

let test_negative_address () =
  let m =
    out_of_range ~what:"read -1" ~alloc:16 (fun ctx _ -> ignore (Svm.Api.read ctx (-1)))
  in
  check Alcotest.bool "names the address" true (contains m "-1");
  ignore
    (out_of_range ~what:"write_block at -1" ~alloc:16 (fun ctx _ ->
         Svm.Api.write_block ctx ~addr:(-1) ~len:2 [| 1.; 2. |]))

let suite =
  [
    ("fault retry race (lost write)", `Quick, test_fault_retry_race);
    ("write-notice batch ordering", `Quick, test_notice_batch_ordering);
    ("keeper survives repeated GC", `Quick, test_keeper_survives_gc);
    ("deep chain apply order", `Quick, test_deep_chain_apply_order);
    ("read past malloc rejected", `Quick, test_read_past_malloc);
    ("write to unallocated space rejected", `Quick, test_write_unallocated);
    ("negative address rejected", `Quick, test_negative_address);
  ]
