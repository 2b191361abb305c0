(* The event set is a 4-ary min-heap over parallel arrays: unboxed float
   keys, int insertion seqs and the event closures. Entries pop in
   lexicographic (key, seq) order, so equal timestamps fire in scheduling
   order. A push allocates nothing once the arrays have grown, a pop builds
   no tuple or option, and a vacated closure slot is overwritten with [noop]
   so an executed event's closure is never kept reachable. *)

(* All-float record, so it is stored flat: setting the clock allocates no
   boxed float. *)
type clock = { mutable now : float }

type t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable evs : (unit -> unit) array;
  mutable size : int;
  mutable next_seq : int;
  clock : clock;
  mutable executed : int;
}

let noop () = ()

(* Tolerance for float rounding when protocol code computes "now + cost" and
   the addition rounds just below the current time. *)
let epsilon = 1e-9

let create ?(capacity = 64) () =
  let n = max 16 capacity in
  {
    keys = Array.make n 0.;
    seqs = Array.make n 0;
    evs = Array.make n noop;
    size = 0;
    next_seq = 0;
    clock = { now = 0. };
    executed = 0;
  }

let now t = t.clock.now

let grow t =
  let n = Array.length t.keys in
  t.keys <- Array.append t.keys (Array.make n 0.);
  t.seqs <- Array.append t.seqs (Array.make n 0);
  t.evs <- Array.append t.evs (Array.make n noop)

let schedule t ~at f =
  let now = t.clock.now in
  if not (at >= now -. epsilon) then
    invalid_arg
      (if Float.is_nan at then "Engine.schedule: at is NaN"
       else Printf.sprintf "Engine.schedule: at=%.9f is before now=%.9f" at now);
  let key = if at > now then at else now in
  if t.size = Array.length t.keys then grow t;
  let keys = t.keys and seqs = t.seqs and evs = t.evs in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = ref t.size in
  t.size <- !i + 1;
  (* Sift up. The new entry has the largest seq, so a strict key comparison
     already keeps it below every equal key. *)
  let rising = ref true in
  while !rising && !i > 0 do
    let p = (!i - 1) / 4 in
    if key < keys.(p) then begin
      keys.(!i) <- keys.(p);
      seqs.(!i) <- seqs.(p);
      evs.(!i) <- evs.(p);
      i := p
    end
    else rising := false
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  evs.(!i) <- f

let[@inline] before (k1 : float) (s1 : int) (k2 : float) s2 = k1 < k2 || (k1 = k2 && s1 < s2)

(* Remove the root: the last entry sinks from the root's hole, and its old
   slot is cleared. *)
let drop_root t =
  let last = t.size - 1 in
  t.size <- last;
  let keys = t.keys and seqs = t.seqs and evs = t.evs in
  let k = keys.(last) and s = seqs.(last) and e = evs.(last) in
  evs.(last) <- noop;
  if last > 0 then begin
    let i = ref 0 and sinking = ref true in
    while !sinking do
      let c0 = (4 * !i) + 1 in
      if c0 >= last then sinking := false
      else begin
        let m = ref c0 in
        let cn = if c0 + 3 < last then c0 + 3 else last - 1 in
        for c = c0 + 1 to cn do
          if before keys.(c) seqs.(c) keys.(!m) seqs.(!m) then m := c
        done;
        let m = !m in
        if before keys.(m) seqs.(m) k s then begin
          keys.(!i) <- keys.(m);
          seqs.(!i) <- seqs.(m);
          evs.(!i) <- evs.(m);
          i := m
        end
        else sinking := false
      end
    done;
    keys.(!i) <- k;
    seqs.(!i) <- s;
    evs.(!i) <- e
  end

let step t =
  if t.size = 0 then false
  else begin
    let time = t.keys.(0) and event = t.evs.(0) in
    drop_root t;
    t.clock.now <- time;
    t.executed <- t.executed + 1;
    event ();
    true
  end

let run t =
  while step t do
    ()
  done;
  t.clock.now

let pending t = t.size

let executed t = t.executed
