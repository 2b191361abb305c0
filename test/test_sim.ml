(* Unit and property tests for the discrete-event substrate: the engine's
   event heap, RNG and engine. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Event heap: the 4-ary heap inside [Sim.Engine], driven through the
   engine and checked against a sorted-list model. The model's drain is
   [List.stable_sort] by key: ties fire in scheduling order. *)

(* Schedules [(at, id)] in order, runs the engine dry and returns the ids in
   execution order. *)
let engine_drain ?capacity entries =
  let e = Sim.Engine.create ?capacity () in
  let log = ref [] in
  List.iter (fun (at, id) -> Sim.Engine.schedule e ~at (fun () -> log := id :: !log)) entries;
  ignore (Sim.Engine.run e);
  List.rev !log

let stable_sort_by_key entries = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) entries

let stable_ids entries = List.map snd (stable_sort_by_key entries)

let test_heap_ordering () =
  (* Descending keys make every push sift up to the root, across four
     levels of the 4-ary layout and four growths of the arrays. *)
  let entries = List.init 200 (fun i -> (float_of_int (200 - i), i)) in
  check Alcotest.(list int) "timestamp order" (List.init 200 (fun i -> 199 - i))
    (engine_drain ~capacity:16 entries)

let test_heap_fifo_ties () =
  let entries = List.init 100 (fun i -> (float_of_int (i mod 3), i)) in
  check Alcotest.(list int) "insertion order on equal keys" (stable_ids entries)
    (engine_drain ~capacity:16 entries);
  (* An event scheduled at [now] from inside a step runs after the events
     already pending at [now]. *)
  let e = Sim.Engine.create () in
  let log = ref [] in
  let note x () = log := x :: !log in
  Sim.Engine.schedule e ~at:1. (fun () ->
      note "a" ();
      Sim.Engine.schedule e ~at:1. (note "d"));
  Sim.Engine.schedule e ~at:1. (note "b");
  Sim.Engine.schedule e ~at:1. (note "c");
  ignore (Sim.Engine.run e);
  check Alcotest.(list string) "same-time event scheduled mid-step runs last"
    [ "a"; "b"; "c"; "d" ] (List.rev !log)

let test_heap_empty_pop () =
  let e = Sim.Engine.create () in
  check Alcotest.bool "empty step" false (Sim.Engine.step e);
  Sim.Engine.schedule e ~at:4. ignore;
  check Alcotest.bool "one step" true (Sim.Engine.step e);
  check Alcotest.bool "drained step" false (Sim.Engine.step e);
  check (Alcotest.float 0.) "an empty step keeps the clock" 4. (Sim.Engine.now e);
  check Alcotest.int "an empty step executes nothing" 1 (Sim.Engine.executed e);
  check Alcotest.int "nothing pending" 0 (Sim.Engine.pending e)

(* Executed closures must become unreachable: the event set of a long
   simulation oscillates around a small size, and a vacated slot that keeps
   its closure alive is a space leak proportional to everything the closure
   captures. *)
let test_heap_releases_payloads () =
  let e = Sim.Engine.create () in
  let live = Weak.create 20 in
  for i = 0 to 19 do
    let payload = Bytes.make 8 (Char.chr (65 + i)) in
    let event () = ignore (Sys.opaque_identity payload) in
    Weak.set live i (Some event);
    Sim.Engine.schedule e ~at:(float_of_int (i mod 5)) event
  done;
  for _ = 1 to 10 do
    ignore (Sim.Engine.step e)
  done;
  Gc.full_major ();
  let alive () =
    let n = ref 0 in
    for i = 0 to 19 do
      if Weak.check live i then incr n
    done;
    !n
  in
  (* Keep the engine itself reachable until after each scan, or the GC is
     free to collect it — closures included — before the full_major. *)
  check Alcotest.int "only unexecuted closures stay reachable" 10 (alive ());
  check Alcotest.int "unexecuted events still pending" 10
    (Sim.Engine.pending (Sys.opaque_identity e));
  (* Slots vacated by the sinking last entry must be cleared too, not only
     the root: drain, and nothing may stay reachable. *)
  ignore (Sim.Engine.run e);
  Gc.full_major ();
  check Alcotest.int "no executed closure stays reachable" 0 (alive ());
  check Alcotest.int "drained" 0 (Sim.Engine.pending (Sys.opaque_identity e))

(* Time offsets from every regime the simulator produces: dense ties, wide
   spans (up to 1e6 x the small ones) and a constant. *)
let delta_gen =
  QCheck.(
    oneof
      [
        map float_of_int (int_bound 10);
        float_bound_inclusive 1000.;
        map (fun i -> float_of_int i *. 1e6) (int_bound 50);
        always 42.;
      ])

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list (pair delta_gen (int_bound 2)))
    (fun seeds ->
      (* Each seed event spawns [children] follow-ups [delta] later. *)
      let e = Sim.Engine.create () in
      let ok = ref true and last = ref 0. in
      let observe () =
        if Sim.Engine.now e < !last then ok := false;
        last := Sim.Engine.now e
      in
      List.iter
        (fun (delta, children) ->
          Sim.Engine.schedule e ~at:delta (fun () ->
              observe ();
              for c = 1 to children do
                Sim.Engine.schedule e ~at:(Sim.Engine.now e +. (delta *. float_of_int c)) observe
              done))
        seeds;
      ignore (Sim.Engine.run e);
      !ok)

let prop_heap_conserves =
  QCheck.Test.make ~name:"heap returns every pushed element once" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let runs = Array.make (List.length xs) 0 in
      let e = Sim.Engine.create ~capacity:4 () in
      List.iteri
        (fun i x ->
          Sim.Engine.schedule e ~at:(float_of_int (x mod 7)) (fun () -> runs.(i) <- runs.(i) + 1))
        xs;
      ignore (Sim.Engine.run e);
      Array.for_all (( = ) 1) runs && Sim.Engine.executed e = List.length xs)

let prop_heap_stable_sort =
  QCheck.Test.make ~name:"heap drain is the stable sort by key" ~count:300
    QCheck.(list_of_size Gen.(int_bound 300) delta_gen)
    (fun keys ->
      let entries = List.mapi (fun i k -> (k, i)) keys in
      engine_drain entries = stable_ids entries)

(* ------------------------------------------------------------------ *)
(* The same event set from the regimes the calendar queue it replaced was
   tested in (these cases keep that queue's test names): a one-slot
   initial capacity, so every run starts by growing; keys spread over
   nine orders of magnitude; a queue that empties and refills; and events
   pushed between steps rather than from inside them. *)

let test_cqueue_ordering () =
  (* A fixed permutation of keys from 1e-3 to 1e9, mixing magnitudes so
     that neighbours in scheduling order are far apart in time. *)
  let key i = (10. ** float_of_int ((i * 7 mod 13) - 3)) *. float_of_int (1 + (i mod 9)) in
  let entries = List.init 90 (fun i -> (key i, i)) in
  check Alcotest.(list int) "timestamp order" (stable_ids entries) (engine_drain ~capacity:1 entries)

let test_cqueue_fifo_ties () =
  (* Ties pushed between steps, after part of the tie group has already
     run, queue behind the rest of the group; the engine grows from one
     slot in between. *)
  let e = Sim.Engine.create ~capacity:1 () in
  let log = ref [] in
  let push at x = Sim.Engine.schedule e ~at (fun () -> log := x :: !log) in
  List.iter (push 5.) [ 1; 2; 3; 4 ];
  push 9. 99;
  check Alcotest.bool "step 1" true (Sim.Engine.step e);
  check Alcotest.bool "step 2" true (Sim.Engine.step e);
  List.iter (push 5.) [ 5; 6 ];
  push 7. 50;
  List.iter (push 5.) [ 7; 8 ];
  ignore (Sim.Engine.run e);
  check Alcotest.(list int) "insertion order on equal keys" [ 1; 2; 3; 4; 5; 6; 7; 8; 50; 99 ]
    (List.rev !log)

let test_cqueue_empty_pop () =
  (* A fresh engine runs dry at time 0; a drained one keeps its clock and
     counts, and accepts new events at or after that clock. *)
  let e = Sim.Engine.create ~capacity:1 () in
  check (Alcotest.float 0.) "empty run" 0. (Sim.Engine.run e);
  check Alcotest.int "empty run executes nothing" 0 (Sim.Engine.executed e);
  for i = 1 to 3 do
    Sim.Engine.schedule e ~at:(float_of_int i) ignore
  done;
  check (Alcotest.float 0.) "drain" 3. (Sim.Engine.run e);
  check Alcotest.bool "drained step" false (Sim.Engine.step e);
  check (Alcotest.float 0.) "drained run keeps the clock" 3. (Sim.Engine.run e);
  check Alcotest.int "pending after drain" 0 (Sim.Engine.pending e);
  Sim.Engine.schedule e ~at:3. ignore;
  Sim.Engine.schedule e ~at:8. ignore;
  check Alcotest.int "refilled" 2 (Sim.Engine.pending e);
  check (Alcotest.float 0.) "refilled run" 8. (Sim.Engine.run e);
  check Alcotest.int "every event executed once" 5 (Sim.Engine.executed e)

(* The queue's size oscillates as it does in a long simulation: it grows to
   64 pending, drains, refills into the slots it vacated and drains again,
   with half the events pushed from inside other events. No executed
   closure may stay reachable from any slot. *)
let test_cqueue_releases_payloads () =
  let e = Sim.Engine.create ~capacity:1 () in
  let n = 96 in
  let live = Weak.create n in
  let make i =
    let payload = Bytes.make 8 (Char.chr (65 + (i mod 26))) in
    let event () = ignore (Sys.opaque_identity payload) in
    Weak.set live i (Some event);
    event
  in
  let alive () =
    let c = ref 0 in
    for i = 0 to n - 1 do
      if Weak.check live i then incr c
    done;
    !c
  in
  for i = 0 to 31 do
    let child = make (32 + i) in
    let parent = make i in
    Sim.Engine.schedule e ~at:(float_of_int (i mod 4)) (fun () ->
        parent ();
        Sim.Engine.schedule e ~at:(Sim.Engine.now e +. float_of_int (i mod 3)) child)
  done;
  ignore (Sim.Engine.run e);
  for i = 64 to n - 1 do
    Sim.Engine.schedule e ~at:(Sim.Engine.now e +. float_of_int (i mod 5)) (make i)
  done;
  for _ = 1 to 16 do
    ignore (Sim.Engine.step e)
  done;
  Gc.full_major ();
  (* Keep the engine reachable until after each scan, or the GC is free to
     collect it — closures included — before the full_major. *)
  check Alcotest.int "only the unexecuted refill closures stay reachable" 16 (alive ());
  check Alcotest.int "refill half pending" 16 (Sim.Engine.pending (Sys.opaque_identity e));
  ignore (Sim.Engine.run e);
  Gc.full_major ();
  check Alcotest.int "no executed closure stays reachable" 0 (alive ());
  check Alcotest.int "executed" n (Sim.Engine.executed (Sys.opaque_identity e))

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
  QCheck.Test.make ~name:"cqueue drain is the stable sort by key" ~count:300 cqueue_keys_gen
    (fun keys ->
      let entries = List.mapi (fun i k -> (k, i)) keys in
      engine_drain ~capacity:1 entries = stable_ids entries)

(* The engine pops between pushes, so mid-stream state must agree with the
   model too, not just a final drain: after every step the executed event
   and the clock match the model's stable minimum. *)
type engine_op = Schedule of float | Step

let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine matches a sorted-list model mid-stream" ~count:300
    QCheck.(
      list_of_size Gen.(int_bound 300)
        (oneof [ map (fun d -> Schedule d) delta_gen; always Step ]))
    (fun ops ->
      let e = Sim.Engine.create ~capacity:8 () in
      let fired = ref (-1) in
      (* Pending (key, id), kept in stable order: ties stay in scheduling order. *)
      let model = ref [] in
      let next_id = ref 0 in
      let step_agrees () =
        match !model with
        | [] -> not (Sim.Engine.step e)
        | (key, id) :: rest ->
            model := rest;
            Sim.Engine.step e && !fired = id && Sim.Engine.now e = key
      in
      let apply = function
        | Schedule delta ->
            let at = Sim.Engine.now e +. delta and id = !next_id in
            incr next_id;
            Sim.Engine.schedule e ~at (fun () -> fired := id);
            model := stable_sort_by_key (!model @ [ (at, id) ]);
            true
        | Step -> step_agrees ()
      in
      List.for_all (fun op -> apply op && Sim.Engine.pending e = List.length !model) ops
      &&
      let rec drain () = !model = [] || (step_agrees () && drain ()) in
      drain () && not (Sim.Engine.step e))

(* As the simulator uses it: events schedule further events from inside a
   step. Each seed event, when it fires, schedules its children at the
   given offsets from [now]; the model runs the same plan over a stably
   sorted list. *)
let prop_engine_nested_matches_model =
  QCheck.Test.make ~name:"engine matches the model when events schedule events"
    ~count:200
    QCheck.(list_of_size Gen.(int_bound 60) (pair delta_gen (small_list delta_gen)))
    (fun plan ->
      let e = Sim.Engine.create ~capacity:4 () in
      let log = ref [] in
      List.iteri
        (fun i (at, children) ->
          Sim.Engine.schedule e ~at (fun () ->
              log := (i, -1) :: !log;
              List.iteri
                (fun j d ->
                  Sim.Engine.schedule e ~at:(Sim.Engine.now e +. d) (fun () ->
                      log := (i, j) :: !log))
                children))
        plan;
      ignore (Sim.Engine.run e);
      let rec simulate pending acc =
        match pending with
        | [] -> List.rev acc
        | (now, (((i, _) as id), children)) :: rest ->
            let spawned = List.mapi (fun k d -> (now +. d, ((i, k), []))) children in
            simulate (stable_sort_by_key (rest @ spawned)) (id :: acc)
      in
      let seeds = List.mapi (fun i (at, children) -> (at, ((i, -1), children))) plan in
      simulate (stable_sort_by_key seeds) [] = List.rev !log)

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

let test_engine_rejects_nan () =
  let e = Sim.Engine.create () in
  Alcotest.check_raises "NaN time" (Invalid_argument "Engine.schedule: at is NaN") (fun () ->
      Sim.Engine.schedule e ~at:Float.nan ignore);
  check Alcotest.int "nothing scheduled" 0 (Sim.Engine.pending e)

let test_engine_clamps_rounding () =
  (* "now + cost" rounding a hair below now runs at now, after the events
     already pending at now; a real step back is rejected. *)
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~at:5. (fun () ->
      Sim.Engine.schedule e ~at:(5. -. 1e-10) (fun () ->
          log := ("late", Sim.Engine.now e) :: !log));
  Sim.Engine.schedule e ~at:5. (fun () -> log := ("tie", Sim.Engine.now e) :: !log);
  ignore (Sim.Engine.run e);
  check Alcotest.(list (pair string (float 0.))) "clamped to now, FIFO after the tie"
    [ ("tie", 5.); ("late", 5.) ] (List.rev !log);
  Alcotest.check_raises "step back"
    (Invalid_argument "Engine.schedule: at=4.999999000 is before now=5.000000000") (fun () ->
      Sim.Engine.schedule e ~at:(5. -. 1e-6) ignore)

let test_engine_pending_across_growth () =
  let e = Sim.Engine.create ~capacity:16 () in
  let model = ref 0 in
  for round = 1 to 40 do
    for i = 1 to 5 do
      Sim.Engine.schedule e ~at:(Sim.Engine.now e +. float_of_int ((i * 7) mod 3)) ignore;
      incr model
    done;
    if round mod 4 = 0 then begin
      ignore (Sim.Engine.step e);
      decr model
    end;
    check Alcotest.int "pending follows the model" !model (Sim.Engine.pending e)
  done;
  check Alcotest.bool "grew well past the capacity hint" true (!model > 64);
  let drained = ref 0 in
  while Sim.Engine.step e do
    incr drained
  done;
  check Alcotest.int "every pending event runs" !model !drained;
  check Alcotest.int "nothing left" 0 (Sim.Engine.pending e)

let test_engine_capacity_hints () =
  let entries = List.init 40 (fun i -> (float_of_int ((i * 7) mod 13), i)) in
  List.iter
    (fun capacity ->
      check Alcotest.(list int) (Printf.sprintf "capacity %d" capacity) (stable_ids entries)
        (engine_drain ~capacity entries))
    [ -1; 0; 1; 40; 1000 ]

let test_engine_raising_event () =
  (* The event leaves the heap before it runs, so an exception escaping it
     leaves the rest of the schedule intact. *)
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~at:2. (fun () -> log := 2 :: !log);
  Sim.Engine.schedule e ~at:1. (fun () -> raise Exit);
  Sim.Engine.schedule e ~at:3. (fun () -> log := 3 :: !log);
  Alcotest.check_raises "escapes step" Exit (fun () -> ignore (Sim.Engine.step e));
  check Alcotest.int "raising event consumed" 2 (Sim.Engine.pending e);
  check (Alcotest.float 0.) "clock at the raising event" 1. (Sim.Engine.now e);
  ignore (Sim.Engine.run e);
  check Alcotest.(list int) "the rest runs in order" [ 2; 3 ] (List.rev !log)

(* Allocation gate for the event core: one preallocated, self-rescheduling
   closure at a pending depth of 32. All that is left per schedule+step
   pair is two boxed floats on the caller's side, [Sim.Engine.now]'s result
   and the [~at] argument (2 words each, as the dev profile compiles
   without cross-module inlining); the bound is that measured 4.0 plus one
   word. Anything that boxes an entry, a pop result or the clock per event
   fails it. *)
let engine_words_bound = 5.0

let test_engine_alloc_gate () =
  let e = Sim.Engine.create ~capacity:32 () in
  let gaps = Array.init 64 (fun i -> 0.5 +. float_of_int ((i * 37) mod 61)) in
  let k = ref 0 in
  let rec event () =
    incr k;
    Sim.Engine.schedule e ~at:(Sim.Engine.now e +. gaps.(!k land 63)) event
  in
  for i = 0 to 31 do
    Sim.Engine.schedule e ~at:(float_of_int i) event
  done;
  let n = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sim.Engine.step e)
  done;
  let per_pair = (Gc.minor_words () -. before) /. float_of_int n in
  check Alcotest.int "depth held" 32 (Sim.Engine.pending e);
  if per_pair > engine_words_bound then
    Alcotest.failf "%.2f minor words per schedule+step pair, bound %.1f" per_pair
      engine_words_bound

let suite =
  [
    ("heap ordering", `Quick, test_heap_ordering);
    ("heap fifo ties", `Quick, test_heap_fifo_ties);
    ("heap empty pop", `Quick, test_heap_empty_pop);
    ("heap releases payloads", `Quick, test_heap_releases_payloads);
    QCheck_alcotest.to_alcotest prop_heap_sorted;
    QCheck_alcotest.to_alcotest prop_heap_conserves;
    QCheck_alcotest.to_alcotest prop_heap_stable_sort;
    ("cqueue ordering", `Quick, test_cqueue_ordering);
    ("cqueue fifo ties", `Quick, test_cqueue_fifo_ties);
    ("cqueue empty pop", `Quick, test_cqueue_empty_pop);
    ("cqueue releases payloads", `Quick, test_cqueue_releases_payloads);
    QCheck_alcotest.to_alcotest prop_cqueue_stable_sort;
    QCheck_alcotest.to_alcotest prop_engine_matches_model;
    QCheck_alcotest.to_alcotest prop_engine_nested_matches_model;
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
    ("engine rejects NaN time", `Quick, test_engine_rejects_nan);
    ("engine clamps rounding to now", `Quick, test_engine_clamps_rounding);
    ("engine pending across growth", `Quick, test_engine_pending_across_growth);
    ("engine capacity hints", `Quick, test_engine_capacity_hints);
    ("engine raising event", `Quick, test_engine_raising_event);
    ("engine schedule+step allocation", `Quick, test_engine_alloc_gate);
  ]
