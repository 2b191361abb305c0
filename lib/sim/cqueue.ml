(* Calendar queue (Brown 1988) specialised for the engine's workload:
   keys are simulated timestamps that mostly increase, so most pushes land
   in or near the bucket currently being drained and both push and pop are
   O(1) amortised, versus O(log n) for the binary heap.

   Ordering contract (must match a binary heap's exactly, byte-for-byte on
   traces; test/heap.ml is the reference model):
   entries pop in lexicographic ((key, seq)) order, where [seq] is the
   global push counter — equal keys pop in insertion order.

   Correctness shape: each entry is assigned an integer *window* index
   [wind = trunc (key /. width)] at insertion. Windows are deterministic
   and monotone in [key] (division by a positive width and truncation both
   preserve order), and equal keys always share a window, so draining
   windows in increasing order and each bucket in sorted (key, seq) order
   reproduces the global order. The scan compares window *indices*, never
   recomputed float window boundaries, so no rounding edge can skip or
   reorder a window.

   Storage is pooled per bucket as parallel arrays (flat unboxed float
   keys, int seqs and windows, ['a option] slots cleared on pop) instead
   of per-entry records: a push writes into preallocated slots and
   allocates only the [Some] cell, and a popped entry leaves nothing
   reachable behind. *)

type 'a bucket = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable winds : int array;
  mutable vals : 'a option array;
  mutable head : int; (* first live slot; live slots are head..head+len-1 *)
  mutable len : int;
}

type 'a t = {
  mutable buckets : 'a bucket array;
  mutable mask : int; (* Array.length buckets - 1; bucket count is a power of 2 *)
  mutable width : float; (* simulated-time span mapped to one window *)
  mutable size : int;
  mutable next_seq : int;
  mutable cur_wind : int; (* the window the next pop starts scanning from *)
  mutable grow_at : int;
  mutable shrink_at : int;
}

let min_buckets = 16

let new_bucket () =
  { keys = [||]; seqs = [||]; winds = [||]; vals = [||]; head = 0; len = 0 }

let thresholds t =
  let n = Array.length t.buckets in
  t.grow_at <- 2 * n;
  t.shrink_at <- (if n <= min_buckets then 0 else n / 2)

let create ?(capacity = 0) () =
  let n = ref min_buckets in
  while !n < capacity do
    n := !n * 2
  done;
  let t =
    {
      buckets = Array.init !n (fun _ -> new_bucket ());
      mask = !n - 1;
      width = 1.0;
      size = 0;
      next_seq = 0;
      cur_wind = 0;
      grow_at = 0;
      shrink_at = 0;
    }
  in
  thresholds t;
  t

let length t = t.size

let is_empty t = t.size = 0

(* Truncating window index, clamped so huge key/width ratios cannot
   overflow the int conversion (everything degenerate lands in one
   window, which is slow but still ordered correctly). *)
let window_of t key =
  let q = key /. t.width in
  if q >= 4.0e18 then max_int / 2 else int_of_float q

let bucket_grow b =
  let cap = Array.length b.keys in
  if b.head + b.len = cap then
    if b.head > 0 then begin
      (* Compact: reclaim the slots vacated by pops before growing. *)
      Array.blit b.keys b.head b.keys 0 b.len;
      Array.blit b.seqs b.head b.seqs 0 b.len;
      Array.blit b.winds b.head b.winds 0 b.len;
      Array.blit b.vals b.head b.vals 0 b.len;
      Array.fill b.vals b.len (b.head) None;
      b.head <- 0
    end
    else begin
      let cap' = max 8 (2 * cap) in
      let keys' = Array.make cap' 0.0 in
      let seqs' = Array.make cap' 0 in
      let winds' = Array.make cap' 0 in
      let vals' = Array.make cap' None in
      Array.blit b.keys 0 keys' 0 cap;
      Array.blit b.seqs 0 seqs' 0 cap;
      Array.blit b.winds 0 winds' 0 cap;
      Array.blit b.vals 0 vals' 0 cap;
      b.keys <- keys';
      b.seqs <- seqs';
      b.winds <- winds';
      b.vals <- vals'
    end

(* Sorted insertion, scanning from the tail: keys mostly arrive in
   increasing order, so the common case is an append. The comparison is on
   (key, seq) so reinsertion during a resize stays stable even when
   entries are revisited out of push order. *)
let bucket_insert b key seq wind v =
  bucket_grow b;
  let lo = b.head in
  let pos = ref (b.head + b.len) in
  while
    !pos > lo
    &&
    let k = Array.unsafe_get b.keys (!pos - 1) in
    k > key || (k = key && Array.unsafe_get b.seqs (!pos - 1) > seq)
  do
    decr pos
  done;
  let tail = b.head + b.len in
  let moving = tail - !pos in
  if moving > 0 then begin
    Array.blit b.keys !pos b.keys (!pos + 1) moving;
    Array.blit b.seqs !pos b.seqs (!pos + 1) moving;
    Array.blit b.winds !pos b.winds (!pos + 1) moving;
    Array.blit b.vals !pos b.vals (!pos + 1) moving
  end;
  b.keys.(!pos) <- key;
  b.seqs.(!pos) <- seq;
  b.winds.(!pos) <- wind;
  b.vals.(!pos) <- v;
  b.len <- b.len + 1

let insert t key seq v =
  let wind = window_of t key in
  bucket_insert t.buckets.(wind land t.mask) key seq wind v;
  if t.size = 0 || wind < t.cur_wind then t.cur_wind <- wind;
  t.size <- t.size + 1

(* Rebuild with a bucket count proportional to the population and a width
   matched to the observed key span. Order is untouched: it is fully
   determined by the stored (key, seq) pairs. *)
let resize t nbuckets' =
  let n = t.size in
  let keys = Array.make n 0.0 in
  let seqs = Array.make n 0 in
  let vals = Array.make n None in
  let j = ref 0 in
  Array.iter
    (fun b ->
      for i = b.head to b.head + b.len - 1 do
        keys.(!j) <- b.keys.(i);
        seqs.(!j) <- b.seqs.(i);
        vals.(!j) <- b.vals.(i);
        incr j
      done)
    t.buckets;
  let lo = ref infinity and hi = ref neg_infinity in
  Array.iter
    (fun k ->
      if k < !lo then lo := k;
      if k > !hi then hi := k)
    keys;
  let span = !hi -. !lo in
  let width =
    if n > 0 && span > 0. then span /. float_of_int n else t.width
  in
  t.buckets <- Array.init nbuckets' (fun _ -> new_bucket ());
  t.mask <- nbuckets' - 1;
  t.width <- (if width > 0. && Float.is_finite width then width else 1.0);
  t.size <- 0;
  thresholds t;
  for i = 0 to n - 1 do
    insert t keys.(i) seqs.(i) vals.(i)
  done

let push t ~key v =
  if Float.is_nan key then invalid_arg "Sim.Cqueue.push: NaN key";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.size >= t.grow_at then resize t (2 * Array.length t.buckets);
  insert t key seq (Some v)

let bucket_front_lt buckets i j =
  let bi = buckets.(i) and bj = buckets.(j) in
  let ki = bi.keys.(bi.head) and kj = bj.keys.(bj.head) in
  ki < kj || (ki = kj && bi.seqs.(bi.head) < bj.seqs.(bj.head))

(* The global minimum is always some bucket's front (buckets are sorted),
   so a linear scan over fronts finds it. Used when a full year scan comes
   up empty (the next event is more than [nbuckets] windows away) and by
   [peek_min]. *)
let min_front_bucket t =
  let best = ref (-1) in
  Array.iteri
    (fun i b ->
      if b.len > 0 && (!best < 0 || bucket_front_lt t.buckets i !best) then
        best := i)
    t.buckets;
  !best

let bucket_pop t b =
  let key = b.keys.(b.head) in
  let v =
    match b.vals.(b.head) with
    | Some v -> v
    | None -> assert false (* live slots always carry a payload *)
  in
  b.vals.(b.head) <- None;
  b.head <- b.head + 1;
  b.len <- b.len - 1;
  if b.len = 0 then b.head <- 0;
  t.size <- t.size - 1;
  if t.size < t.shrink_at then
    resize t (max min_buckets (Array.length t.buckets / 2));
  (key, v)

let pop_min t =
  if t.size = 0 then invalid_arg "Sim.Cqueue.pop_min: queue is empty";
  let nbuckets = Array.length t.buckets in
  let found = ref (-1) in
  let w = ref t.cur_wind in
  let scanned = ref 0 in
  while !found < 0 && !scanned < nbuckets do
    let b = t.buckets.(!w land t.mask) in
    if b.len > 0 && Array.unsafe_get b.winds b.head = !w then found := !w
    else begin
      incr w;
      incr scanned
    end
  done;
  let b_idx =
    if !found >= 0 then begin
      t.cur_wind <- !found;
      !found land t.mask
    end
    else begin
      (* Sparse tail: jump straight to the bucket holding the minimum. *)
      let i = min_front_bucket t in
      let b = t.buckets.(i) in
      t.cur_wind <- b.winds.(b.head);
      i
    end
  in
  bucket_pop t t.buckets.(b_idx)

let peek_min t =
  if t.size = 0 then invalid_arg "Sim.Cqueue.peek_min: queue is empty";
  let b = t.buckets.(min_front_bucket t) in
  match b.vals.(b.head) with
  | Some v -> (b.keys.(b.head), v)
  | None -> assert false

let clear t =
  Array.iter
    (fun b ->
      Array.fill b.vals 0 (Array.length b.vals) None;
      b.head <- 0;
      b.len <- 0)
    t.buckets;
  t.size <- 0;
  t.cur_wind <- 0
