(* Unit and property tests for the discrete-event substrate: the
   reference heap, the calendar queue, RNG and engine. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun (k, v) -> Heap.push h ~key:k v) [ (3., "c"); (1., "a"); (2., "b") ];
  check Alcotest.(pair (float 0.) string) "min" (1., "a") (Heap.pop_min h);
  check Alcotest.(pair (float 0.) string) "next" (2., "b") (Heap.pop_min h);
  check Alcotest.(pair (float 0.) string) "last" (3., "c") (Heap.pop_min h);
  check Alcotest.bool "empty" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~key:5. v) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> snd (Heap.pop_min h)) in
  check Alcotest.(list int) "insertion order on equal keys" [ 1; 2; 3; 4 ] order

let test_heap_empty_pop () =
  let h : int Heap.t = Heap.create () in
  Alcotest.check_raises "pop empty"
    (Invalid_argument "Heap.pop_min: heap is empty")
    (fun () -> ignore (Heap.pop_min h));
  Alcotest.check_raises "peek empty"
    (Invalid_argument "Heap.peek_min: heap is empty")
    (fun () -> ignore (Heap.peek_min h))

(* Popped payloads must become unreachable: the event queue of a long
   simulation oscillates around a small size, and a popped slot that keeps
   its closure alive is a space leak proportional to everything those
   closures capture. *)
let test_heap_releases_payloads () =
  let h : string Heap.t = Heap.create () in
  let live = Weak.create 20 in
  for i = 0 to 19 do
    let payload = String.init 8 (fun j -> Char.chr (65 + ((i + j) mod 26))) in
    Weak.set live i (Some payload);
    Heap.push h ~key:(float_of_int (i mod 5)) payload
  done;
  for _ = 1 to 10 do
    ignore (Heap.pop_min h)
  done;
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to 19 do
    if Weak.check live i then incr alive
  done;
  (* Keep the heap itself reachable until after the scan, or the GC is free
     to collect it — payloads included — before the full_major. *)
  check Alcotest.int "unpopped payloads still in the heap" 10
    (Heap.length (Sys.opaque_identity h));
  check Alcotest.int "only unpopped payloads stay reachable" 10 !alive

let test_heap_peek () =
  let h = Heap.create () in
  Heap.push h ~key:2. "x";
  Heap.push h ~key:1. "y";
  check Alcotest.(pair (float 0.) string) "peek" (1., "y") (Heap.peek_min h);
  check Alcotest.int "peek does not remove" 2 (Heap.length h)

let test_heap_clear () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~key:(float_of_int i) i
  done;
  Heap.clear h;
  check Alcotest.bool "cleared" true (Heap.is_empty h)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:k i) keys;
      let rec drain last =
        if Heap.is_empty h then true
        else
          let k, _ = Heap.pop_min h in
          k >= last && drain k
      in
      drain neg_infinity)

let prop_heap_conserves =
  QCheck.Test.make ~name:"heap returns every pushed element once" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let h = Heap.create () in
      List.iter (fun x -> Heap.push h ~key:(float_of_int (x mod 7)) x) xs;
      let out = ref [] in
      while not (Heap.is_empty h) do
        out := snd (Heap.pop_min h) :: !out
      done;
      List.sort compare !out = List.sort compare xs)

(* Stronger than the two properties above combined: ties must come out in
   insertion order, i.e. a full drain IS List.stable_sort by key. *)
let prop_heap_stable_sort =
  QCheck.Test.make ~name:"heap drain is the stable sort by key" ~count:200
    QCheck.(list (int_bound 10))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:(float_of_int k) (k, i)) keys;
      let out = ref [] in
      while not (Heap.is_empty h) do
        out := snd (Heap.pop_min h) :: !out
      done;
      let expected =
        List.stable_sort
          (fun (a, _) (b, _) -> compare (a : int) b)
          (List.mapi (fun i k -> (k, i)) keys)
      in
      List.rev !out = expected)

(* ------------------------------------------------------------------ *)
(* Calendar queue — the engine's event set. Mirrors the heap properties
   (same ordering contract), plus a direct drain-equivalence check against
   the heap and adversarial key distributions that force the queue through
   its resize, sparse-tail and single-window code paths. *)

let test_cqueue_ordering () =
  let q = Sim.Cqueue.create () in
  List.iter (fun (k, v) -> Sim.Cqueue.push q ~key:k v) [ (3., "c"); (1., "a"); (2., "b") ];
  check Alcotest.(pair (float 0.) string) "min" (1., "a") (Sim.Cqueue.pop_min q);
  check Alcotest.(pair (float 0.) string) "next" (2., "b") (Sim.Cqueue.pop_min q);
  check Alcotest.(pair (float 0.) string) "last" (3., "c") (Sim.Cqueue.pop_min q);
  check Alcotest.bool "empty" true (Sim.Cqueue.is_empty q)

let test_cqueue_fifo_ties () =
  let q = Sim.Cqueue.create () in
  List.iter (fun v -> Sim.Cqueue.push q ~key:5. v) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> snd (Sim.Cqueue.pop_min q)) in
  check Alcotest.(list int) "insertion order on equal keys" [ 1; 2; 3; 4 ] order

let test_cqueue_empty_pop () =
  let q : int Sim.Cqueue.t = Sim.Cqueue.create () in
  Alcotest.check_raises "pop empty"
    (Invalid_argument "Sim.Cqueue.pop_min: queue is empty")
    (fun () -> ignore (Sim.Cqueue.pop_min q));
  Alcotest.check_raises "peek empty"
    (Invalid_argument "Sim.Cqueue.peek_min: queue is empty")
    (fun () -> ignore (Sim.Cqueue.peek_min q))

let test_cqueue_peek_and_clear () =
  let q = Sim.Cqueue.create () in
  Sim.Cqueue.push q ~key:2. "x";
  Sim.Cqueue.push q ~key:1. "y";
  check Alcotest.(pair (float 0.) string) "peek" (1., "y") (Sim.Cqueue.peek_min q);
  check Alcotest.int "peek does not remove" 2 (Sim.Cqueue.length q);
  Sim.Cqueue.clear q;
  check Alcotest.bool "cleared" true (Sim.Cqueue.is_empty q)

(* Same space-leak guarantee as the heap: a popped entry's payload must not
   stay reachable from the queue's pooled slots. *)
let test_cqueue_releases_payloads () =
  let q : string Sim.Cqueue.t = Sim.Cqueue.create () in
  let live = Weak.create 20 in
  for i = 0 to 19 do
    let payload = String.init 8 (fun j -> Char.chr (65 + ((i + j) mod 26))) in
    Weak.set live i (Some payload);
    Sim.Cqueue.push q ~key:(float_of_int (i mod 5)) payload
  done;
  for _ = 1 to 10 do
    ignore (Sim.Cqueue.pop_min q)
  done;
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to 19 do
    if Weak.check live i then incr alive
  done;
  check Alcotest.int "unpopped payloads still in the queue" 10
    (Sim.Cqueue.length (Sys.opaque_identity q));
  check Alcotest.int "only unpopped payloads stay reachable" 10 !alive

(* Key distributions that exercise every structural regime: dense clusters
   (ties, one window), wide spans (sparse tail, direct-search fallback),
   and enough volume to cross grow/shrink thresholds. *)
let cqueue_keys_gen =
  QCheck.(
    list_of_size Gen.(int_bound 300)
      (oneof
         [
           float_bound_inclusive 10.;
           float_bound_inclusive 1000.;
           map (fun i -> float_of_int i *. 1e6) (int_bound 50);
           always 42.;
         ]))

let prop_cqueue_stable_sort =
  QCheck.Test.make ~name:"cqueue drain is the stable sort by key" ~count:300
    cqueue_keys_gen
    (fun keys ->
      let q = Sim.Cqueue.create () in
      List.iteri (fun i k -> Sim.Cqueue.push q ~key:k (k, i)) keys;
      let out = ref [] in
      while not (Sim.Cqueue.is_empty q) do
        out := snd (Sim.Cqueue.pop_min q) :: !out
      done;
      let expected =
        List.stable_sort
          (fun (a, _) (b, _) -> compare (a : float) b)
          (List.mapi (fun i k -> (k, i)) keys)
      in
      List.rev !out = expected)

(* The engine contract, stated directly: the calendar queue and the heap
   drain any push sequence identically — keys AND payloads, including
   interleaved pops (the engine pops between pushes, so mid-stream state
   must agree too, not just a final drain). *)
let prop_cqueue_matches_heap =
  QCheck.Test.make ~name:"cqueue and heap agree under interleaved push/pop"
    ~count:300
    QCheck.(pair (list (pair (int_bound 10) bool)) cqueue_keys_gen)
    (fun (ops, extra) ->
      let keys = List.map (fun (k, pop) -> (float_of_int k, pop)) ops @ List.map (fun k -> (k, false)) extra in
      let q = Sim.Cqueue.create () in
      let h = Heap.create () in
      let i = ref 0 in
      let agree = ref true in
      List.iter
        (fun (k, pop) ->
          Sim.Cqueue.push q ~key:k !i;
          Heap.push h ~key:k !i;
          incr i;
          if pop && not (Sim.Cqueue.is_empty q) then
            if Sim.Cqueue.pop_min q <> Heap.pop_min h then agree := false)
        keys;
      while !agree && not (Sim.Cqueue.is_empty q) do
        if Sim.Cqueue.pop_min q <> Heap.pop_min h then agree := false
      done;
      !agree && Heap.is_empty h)

(* ------------------------------------------------------------------ *)
(* RNG *)

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:7 and b = Sim.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Sim.Rng.create ~seed:1 and b = Sim.Rng.create ~seed:2 in
  let xs = List.init 20 (fun _ -> Sim.Rng.bits64 a) in
  let ys = List.init 20 (fun _ -> Sim.Rng.bits64 b) in
  check Alcotest.bool "different streams" true (xs <> ys)

let test_rng_split_independent () =
  let a = Sim.Rng.create ~seed:3 in
  let b = Sim.Rng.split a in
  let xs = List.init 20 (fun _ -> Sim.Rng.bits64 a) in
  let ys = List.init 20 (fun _ -> Sim.Rng.bits64 b) in
  check Alcotest.bool "split streams differ" true (xs <> ys)

let prop_rng_int_range =
  QCheck.Test.make ~name:"rng int stays in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Sim.Rng.create ~seed in
      let x = Sim.Rng.int r bound in
      x >= 0 && x < bound)

let prop_rng_float_range =
  QCheck.Test.make ~name:"rng float stays in [0, bound)" ~count:500 QCheck.small_int
    (fun seed ->
      let r = Sim.Rng.create ~seed in
      let x = Sim.Rng.float r 1.0 in
      x >= 0.0 && x < 1.0)

(* The unboxed generator draws exactly the reference model's streams. Large
   [int] bounds (above 2^63 / 3) reject up to a third of their draws, so
   the retry path is exercised as well as the common one. *)
type rng_op = Bits | Int of int | Float of float | Split

let rng_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Bits);
        (3, map (fun b -> Int b) (int_range 1 1000));
        (2, map (fun b -> Int b) (int_range (max_int / 3 * 2) max_int));
        (1, map (fun b -> Int b) (int_range 1 max_int));
        (3, map (fun b -> Float b) (oneof [ float; return 1.0; return (-0.0) ]));
        (1, return Split);
      ])

let pp_rng_op = function
  | Bits -> "bits64"
  | Int b -> Printf.sprintf "int %d" b
  | Float b -> Printf.sprintf "float %h" b
  | Split -> "split"

let prop_rng_matches_reference =
  QCheck.Test.make ~name:"rng draws the boxed reference model's streams" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair int (list pp_rng_op))
       QCheck.Gen.(pair int (list_size (int_range 0 200) rng_op_gen)))
    (fun (seed, ops) ->
      let bits = Int64.bits_of_float in
      let rec go fast slow = function
        | [] -> Sim.Rng.bits64 fast = Rng_ref.bits64 slow
        | Bits :: rest -> Sim.Rng.bits64 fast = Rng_ref.bits64 slow && go fast slow rest
        | Int b :: rest -> Sim.Rng.int fast b = Rng_ref.int slow b && go fast slow rest
        | Float b :: rest ->
            bits (Sim.Rng.float fast b) = bits (Rng_ref.float slow b) && go fast slow rest
        | Split :: rest ->
            (* Both the child and the advanced parent must stay aligned. *)
            let fast' = Sim.Rng.split fast and slow' = Rng_ref.split slow in
            Sim.Rng.bits64 fast = Rng_ref.bits64 slow && go fast' slow' rest
      in
      go (Sim.Rng.create ~seed) (Rng_ref.create ~seed) ops)

let test_rng_mean () =
  let r = Sim.Rng.create ~seed:11 in
  let n = 10000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.float r 1.0
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "mean near 0.5" true (mean > 0.47 && mean < 0.53)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~at:3. (fun () -> log := 3 :: !log);
  Sim.Engine.schedule e ~at:1. (fun () -> log := 1 :: !log);
  Sim.Engine.schedule e ~at:2. (fun () -> log := 2 :: !log);
  ignore (Sim.Engine.run e);
  check Alcotest.(list int) "timestamp order" [ 1; 2; 3 ] (List.rev !log)

let test_engine_now_advances () =
  let e = Sim.Engine.create () in
  let seen = ref [] in
  Sim.Engine.schedule e ~at:5. (fun () -> seen := Sim.Engine.now e :: !seen);
  Sim.Engine.schedule e ~at:10. (fun () -> seen := Sim.Engine.now e :: !seen);
  let final = Sim.Engine.run e in
  check Alcotest.(list (float 0.)) "now at each event" [ 5.; 10. ] (List.rev !seen);
  check (Alcotest.float 0.) "final time" 10. final

let test_engine_nested_scheduling () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~at:1. (fun () ->
      log := "a" :: !log;
      Sim.Engine.schedule e ~at:2. (fun () -> log := "b" :: !log));
  ignore (Sim.Engine.run e);
  check Alcotest.(list string) "nested" [ "a"; "b" ] (List.rev !log)

let test_engine_past_rejected () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~at:10. (fun () ->
      try
        Sim.Engine.schedule e ~at:1. (fun () -> ());
        Alcotest.fail "scheduling in the past must raise"
      with Invalid_argument _ -> ());
  ignore (Sim.Engine.run e)

let test_engine_equal_times_fifo () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    Sim.Engine.schedule e ~at:7. (fun () -> log := i :: !log)
  done;
  ignore (Sim.Engine.run e);
  check Alcotest.(list int) "fifo at equal time" [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_engine_step_and_counts () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~at:1. (fun () -> ());
  Sim.Engine.schedule e ~at:2. (fun () -> ());
  check Alcotest.int "pending" 2 (Sim.Engine.pending e);
  check Alcotest.bool "step one" true (Sim.Engine.step e);
  check Alcotest.int "executed" 1 (Sim.Engine.executed e);
  check Alcotest.bool "step two" true (Sim.Engine.step e);
  check Alcotest.bool "drained" false (Sim.Engine.step e)

let suite =
  [
    ("heap ordering", `Quick, test_heap_ordering);
    ("heap fifo ties", `Quick, test_heap_fifo_ties);
    ("heap empty pop", `Quick, test_heap_empty_pop);
    ("heap releases payloads", `Quick, test_heap_releases_payloads);
    ("heap peek", `Quick, test_heap_peek);
    ("heap clear", `Quick, test_heap_clear);
    QCheck_alcotest.to_alcotest prop_heap_sorted;
    QCheck_alcotest.to_alcotest prop_heap_conserves;
    QCheck_alcotest.to_alcotest prop_heap_stable_sort;
    ("cqueue ordering", `Quick, test_cqueue_ordering);
    ("cqueue fifo ties", `Quick, test_cqueue_fifo_ties);
    ("cqueue empty pop", `Quick, test_cqueue_empty_pop);
    ("cqueue peek and clear", `Quick, test_cqueue_peek_and_clear);
    ("cqueue releases payloads", `Quick, test_cqueue_releases_payloads);
    QCheck_alcotest.to_alcotest prop_cqueue_stable_sort;
    QCheck_alcotest.to_alcotest prop_cqueue_matches_heap;
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng split independent", `Quick, test_rng_split_independent);
    QCheck_alcotest.to_alcotest prop_rng_int_range;
    QCheck_alcotest.to_alcotest prop_rng_float_range;
    QCheck_alcotest.to_alcotest prop_rng_matches_reference;
    ("rng mean", `Quick, test_rng_mean);
    ("engine ordering", `Quick, test_engine_ordering);
    ("engine now advances", `Quick, test_engine_now_advances);
    ("engine nested scheduling", `Quick, test_engine_nested_scheduling);
    ("engine rejects past", `Quick, test_engine_past_rejected);
    ("engine fifo at equal times", `Quick, test_engine_equal_times_fifo);
    ("engine step and counts", `Quick, test_engine_step_and_counts);
  ]
