(* Paranoid-mode coherence checking: every app and every protocol at Test
   scale under the barrier-time bitwise-agreement invariant (the net that
   would have caught the lost-write, notice-ordering and directory bugs of
   DESIGN.md 7 immediately), and the page-buffer ownership invariant (no
   buffer in two live slots, none both live and on the free list). *)

let check = Alcotest.check

let test_all_apps_paranoid () =
  List.iter
    (fun (app : Apps.Registry.t) ->
      List.iter
        (fun protocol ->
          let cfg = Svm.Config.make ~paranoid:true ~nprocs:4 protocol in
          try ignore (Svm.Runtime.run cfg (app.Apps.Registry.body ~verify:true))
          with e ->
            Alcotest.failf "%s under %s (paranoid): %s" app.Apps.Registry.name
              (Svm.Config.protocol_name protocol) (Printexc.to_string e))
        Svm.Config.extended_protocols)
    (Apps.Registry.all Apps.Registry.Test)

let test_paranoid_with_extensions () =
  let app = Apps.Registry.water_nsq Apps.Registry.Test in
  List.iter
    (fun protocol ->
      let cfg =
        Svm.Config.make ~paranoid:true ~home_migration:true ~coproc_locks:true ~nprocs:8
          protocol
      in
      ignore (Svm.Runtime.run cfg (app.Apps.Registry.body ~verify:true)))
    [ Svm.Config.Hlrc; Svm.Config.Ohlrc; Svm.Config.Aurc ]

let test_paranoid_under_gc_pressure () =
  let cfg =
    Svm.Config.make ~paranoid:true ~gc_threshold_bytes:10_000 ~nprocs:4 Svm.Config.Lrc
  in
  let app = Apps.Registry.lu Apps.Registry.Test in
  let r = Svm.Runtime.run cfg (app.Apps.Registry.body ~verify:true) in
  let gc_runs =
    Array.fold_left (fun acc n -> acc + n.Svm.Runtime.nr_counters.Svm.Stats.gc_runs) 0
      r.Svm.Runtime.r_nodes
  in
  check Alcotest.bool "collections happened under the invariant" true (gc_runs > 0)

let has s sub =
  let ns = String.length s and nb = String.length sub in
  let rec go i = i + nb <= ns && (String.sub s i nb = sub || go (i + 1)) in
  go 0

let run_paranoid name cfg (app : Apps.Registry.t) =
  try Svm.Runtime.run cfg (app.Apps.Registry.body ~verify:true)
  with e -> Alcotest.failf "%s (paranoid): %s" name (Printexc.to_string e)

(* Page-buffer recycling under the ownership invariant and NaN-poisoned
   releases: the fetch-heavy kvstore and LU on every protocol, with batched
   home fetches (whose extras can be discarded) as well as single ones. *)
let test_ownership_all_protocols () =
  List.iter
    (fun (app : Apps.Registry.t) ->
      List.iter
        (fun protocol ->
          List.iter
            (fun fault_batch ->
              let cfg = Svm.Config.make ~paranoid:true ~fault_batch ~nprocs:8 protocol in
              let name =
                Printf.sprintf "%s under %s, fault batch %d" app.Apps.Registry.name
                  (Svm.Config.protocol_name protocol) fault_batch
              in
              ignore (run_paranoid name cfg app))
            [ 1; 4 ])
        Svm.Config.extended_protocols)
    [ Apps.Registry.lu Apps.Registry.Test; Apps.Registry.kvstore Apps.Registry.Test ]

(* Failover re-installs pages (the rebuilt master, re-routed fetches) and
   discards superseded fetch replies: kill the last node after its final
   barrier arrival with two replicas per page, as the kill soak does, and
   require both the invariants and the fault-free digest. *)
let test_ownership_under_kill () =
  let nprocs = 4 and victim = 3 in
  List.iter
    (fun (app : Apps.Registry.t) ->
      List.iter
        (fun (protocol, repl_scheme) ->
          let name =
            Printf.sprintf "%s under %s/%s with a kill" app.Apps.Registry.name
              (Svm.Config.protocol_name protocol)
              (Svm.Config.repl_scheme_name repl_scheme)
          in
          let make chaos =
            Svm.Config.make ~paranoid:true ~replicas:2 ~repl_scheme ~chaos ~nprocs protocol
          in
          let sink = Obs.Trace.create_sink () in
          let clean =
            try
              Svm.Runtime.run ~sink (make Machine.Chaos.none)
                (app.Apps.Registry.body ~verify:true)
            with e -> Alcotest.failf "%s, fault-free (paranoid): %s" name (Printexc.to_string e)
          in
          let last = ref 0. in
          Obs.Trace.iter sink (fun ev ->
              match ev.Obs.Trace.kind with
              | Obs.Trace.Barrier_arrive _ when ev.Obs.Trace.node = victim ->
                  last := ev.Obs.Trace.time
              | _ -> ());
          let at = !last +. (0.5 *. (clean.Svm.Runtime.r_elapsed -. !last)) in
          let chaos =
            {
              Machine.Chaos.none with
              Machine.Chaos.faults = [ Machine.Chaos.Kill { node = victim; at } ];
            }
          in
          let killed = run_paranoid name (make chaos) app in
          check Alcotest.bool (name ^ ": digest equals the fault-free run's") true
            (Int64.equal killed.Svm.Runtime.r_mem_digest clean.Svm.Runtime.r_mem_digest))
        [
          (Svm.Config.Hlrc, Svm.Config.Backup);
          (Svm.Config.Hlrc, Svm.Config.Inval);
          (Svm.Config.Lrc, Svm.Config.Inval);
        ])
    (* kvstore is left out: a kill in its tail deadlocks its lock chain
       with or without buffer recycling, a failover limitation of its own. *)
    [ Apps.Registry.lu Apps.Registry.Test; Apps.Registry.sor Apps.Registry.Test ]

(* The ownership checker must catch a buffer in two live slots, a live
   buffer that was also released, and a mirror of anything but a master
   copy; and it must leave memory as it found it. *)
let test_checker_detects_aliasing () =
  let forge () =
    let sys = Svm.System.create (Svm.Config.make ~paranoid:true ~nprocs:2 Svm.Config.Aurc) in
    ignore (Svm.System.malloc sys sys.Svm.System.nodes.(0) 16);
    let pt node = sys.Svm.System.nodes.(node).Svm.System.pt in
    let e node = Mem.Page_table.ensure (pt node) 0 in
    let data = Mem.Page_table.attach_copy (pt 0) (e 0) in
    Mem.Words.set data 0 7.;
    (sys, pt, e, data)
  in
  let expect_violation sys what sub =
    match Svm.Invariants.check sys with
    | () -> Alcotest.failf "%s must be reported" what
    | exception Svm.Invariants.Violation msg ->
        check Alcotest.bool (what ^ ": " ^ msg) true (has msg sub)
  in
  let sys, _, e, data = forge () in
  Svm.Invariants.check sys;
  check (Alcotest.float 0.) "stamps restored" 7. (Mem.Words.get data 0);
  (e 1).Mem.Page_table.twin <- Some data;
  expect_violation sys "a shared buffer" "share one page buffer";
  check (Alcotest.float 0.) "stamps restored after a violation" 7. (Mem.Words.get data 0);
  let sys, _, _, data = forge () in
  Mem.Words.Pool.release sys.Svm.System.pool data;
  expect_violation sys "a live released buffer" "free list";
  let sys, pt, e, data = forge () in
  (e 1).Mem.Page_table.mirror <- Some data;
  Svm.Invariants.check sys;
  Mem.Page_table.make_twin (pt 0) (e 0);
  (e 1).Mem.Page_table.mirror <- (e 0).Mem.Page_table.twin;
  expect_violation sys "a mirror of a twin" "mirror of page 0 aliases node 0's twin"

(* The checker must actually detect an incoherence: forge one directly. *)
let test_checker_detects_divergence () =
  let sys = Svm.System.create (Svm.Config.make ~paranoid:true ~nprocs:2 Svm.Config.Lrc) in
  let n0 = sys.Svm.System.nodes.(0) and n1 = sys.Svm.System.nodes.(1) in
  ignore (Svm.System.malloc sys n0 16);
  let plant node v =
    let entry = Mem.Page_table.ensure node.Svm.System.pt 0 in
    let data = Mem.Page_table.attach_copy node.Svm.System.pt entry in
    entry.Mem.Page_table.prot <- Mem.Page_table.Read_only;
    ignore (Svm.System.page_info sys node 0);
    Mem.Words.set data 3 v
  in
  plant n0 1.0;
  plant n1 2.0;
  (try
     Svm.Invariants.check sys;
     Alcotest.fail "divergent current copies must be reported"
   with Svm.Invariants.Violation msg ->
     check Alcotest.bool "names the page and word" true
       (String.length msg > 0 && has msg "page 0" && has msg "word 3"))

let suite =
  [
    ("all apps, all protocols, paranoid", `Slow, test_all_apps_paranoid);
    ("paranoid with extensions on", `Quick, test_paranoid_with_extensions);
    ("paranoid under GC pressure", `Quick, test_paranoid_under_gc_pressure);
    ("checker detects forged divergence", `Quick, test_checker_detects_divergence);
    ("buffer ownership, all protocols", `Slow, test_ownership_all_protocols);
    ("buffer ownership under a kill", `Slow, test_ownership_under_kill);
    ("checker detects buffer aliasing", `Quick, test_checker_detects_aliasing);
  ]
