(* Host-speed reference: fixed work written in the benchmark itself,
   calling nothing in the program, so no program change can move it. It
   mixes what the simulator's host time is made of: a priority queue of
   small allocated records, hash-table updates, page-sized block copies
   over 16 MB, a page-table walk with one Bigarray read per word, and dense
   float arithmetic. Each measured host time is divided by the [index]
   taken around it, which cancels most of the drift of a shared host. *)

let heap = Array.make 4096 (0., 0)

(* 16 MB of page-sized blocks, like the simulator's page copies and twins:
   the reference must feel the cache and memory-bandwidth pressure the
   program feels, not only the core's speed. *)
let block = 1024

let pages = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (2048 * block)

let () = Bigarray.Array1.fill pages 0.

let work () =
  let h = Hashtbl.create 1024 in
  let ba = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 8192 in
  Bigarray.Array1.fill ba 1.0;
  let size = ref 0 in
  let push t v =
    (* binary-heap insert *)
    let i = ref !size in
    incr size;
    while !i > 0 && fst heap.((!i - 1) / 2) > t do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- (t, v)
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      if l >= !size then fin := true
      else begin
        let c = if l + 1 < !size && fst heap.(l + 1) < fst heap.(l) then l + 1 else l in
        if fst heap.(c) < fst last then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else fin := true
      end
    done;
    heap.(!i) <- last;
    top
  in
  for i = 0 to 255 do
    push (float_of_int i) i
  done;
  let acc = ref 0. in
  for step = 0 to 60_000 do
    let t, v = pop () in
    let key = (v * 7919) land 4095 in
    (match Hashtbl.find_opt h key with
    | Some x -> Hashtbl.replace h key (x +. 1.)
    | None -> Hashtbl.add h key 1.);
    let base = (step * 64) land 8191 in
    for k = 0 to 31 do
      acc := !acc +. Bigarray.Array1.unsafe_get ba ((base + k) land 8191)
    done;
    Bigarray.Array1.unsafe_set ba base !acc;
    if step land 15 = 0 then begin
      (* copy one page-sized block to another, as a twin or fetch does *)
      let src = ((step * 2654435761) lsr 7) land 2047 * block
      and dst = ((step * 40503) lsr 3) land 2047 * block in
      Bigarray.Array1.blit
        (Bigarray.Array1.sub pages src block)
        (Bigarray.Array1.sub pages dst block)
    end;
    push (t +. 1. +. float_of_int (key land 31)) (v + 1)
  done;
  !acc

(* A page-table walk like the word-access path's: an array of
   page-sized Bigarrays indexed by [addr lsr 10], one read per word. *)
let table = Array.init 64 (fun i -> Bigarray.Array1.sub pages (i * 32 * block) block)

let walk () =
  let acc = ref 0. in
  for rep = 0 to 15 do
    for addr = 0 to (64 * block) - 1 do
      let page = table.((addr lsr 10) land 63) in
      acc := !acc +. Bigarray.Array1.get page ((addr + rep) land (block - 1))
    done
  done;
  !acc

(* Dense float work on a small working set, like LU's 32x32 block
   updates: a 48x48 matrix product on flat float arrays. Without it the
   index tracks LU's host time much worse (see NOTES.md). *)
let fa = Array.init (48 * 48) (fun i -> float_of_int (i mod 7) *. 0.5)

let fc = Array.make (48 * 48) 0.

let matmul () =
  for rep = 0 to 7 do
    for i = 0 to 47 do
      for j = 0 to 47 do
        let s = ref (float_of_int rep) in
        for k = 0 to 47 do
          s := !s +. (Array.unsafe_get fa ((i * 48) + k) *. Array.unsafe_get fa ((k * 48) + j))
        done;
        Array.unsafe_set fc ((i * 48) + j) !s
      done
    done
  done;
  fc.(0)

(* The kernels' arithmetic alone: a 96x96 matrix product, four times.
   Compute-bound code drifts more than the mixed reference with the host's
   clock, so the index below weighs both equally. *)
let fb = Array.init (96 * 96) (fun i -> float_of_int (i mod 7) *. 0.5)

let fd = Array.make (96 * 96) 0.

let dense () =
  for rep = 0 to 3 do
    for i = 0 to 95 do
      for j = 0 to 95 do
        let s = ref (float_of_int rep) in
        for k = 0 to 95 do
          s := !s +. (fb.((i * 96) + k) *. fb.((k * 96) + j))
        done;
        fd.((i * 96) + j) <- !s
      done
    done
  done;
  fd.(0)

let seconds f =
  let t0 = Runner.now_ns () in
  ignore (Sys.opaque_identity (f ()));
  Runner.seconds_since t0

(* Median times of the two references on the 2-core Xeon (2.1 GHz) VM the
   benchmark was sized on. *)
let nominal_mixed_s = 0.032

let nominal_dense_s = 0.0085

(* Host-speed index now: 1 on the sizing host, 2 on a host twice as slow.
   A host time divided by the index taken around it is in seconds of the
   sizing host. *)
let index () =
  let mixed =
    seconds (fun () ->
        ignore (Sys.opaque_identity (work ()));
        ignore (Sys.opaque_identity (walk ()));
        matmul ())
  in
  let d = seconds dense in
  ((mixed /. nominal_mixed_s) +. (d /. nominal_dense_s)) /. 2.
