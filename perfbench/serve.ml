(* Serving figures of a kv run, the saturation verdict, and the capacity
   search.

   A run whose backlog grows is not reported as latency: its percentiles
   measure queue length, which grows with run length. *)

let p99_limit_us = 50_000.

let min_achieved_share = 0.95

type t = {
  ops : int;  (** Completed ops behind the percentiles. *)
  p50_us : float;
  p99_us : float;
  p999_us : float;
  achieved : float;  (** Completed ops per simulated second. *)
  offered : float;  (** The plan's arrival rate, ops/s. *)
  saturated : bool;
}

(* The latencies of runs of one offered rate, pooled (sorted in place);
   achieved throughput is their completed ops over their summed simulated
   time. *)
let of_latencies ~offered ~elapsed_s lats =
  Array.sort compare lats;
  let q p = Option.value (Svm.Stats.quantile lats p) ~default:infinity in
  let ops = Array.length lats in
  let achieved = if elapsed_s > 0. then float_of_int ops /. elapsed_s else 0. in
  let p99_us = q 0.99 in
  {
    ops;
    p50_us = q 0.5;
    p99_us;
    p999_us = q 0.999;
    achieved;
    offered;
    saturated = achieved < min_achieved_share *. offered || p99_us > p99_limit_us;
  }

let latencies (r : Svm.Runtime.report) =
  match r.Svm.Runtime.r_ops with Some o -> o.Svm.Runtime.or_lats | None -> [||]

let pooled ~offered (reports : Svm.Runtime.report list) =
  of_latencies ~offered
    ~elapsed_s:(List.fold_left (fun a r -> a +. (r.Svm.Runtime.r_elapsed *. 1e-6)) 0. reports)
    (Array.concat (List.map latencies reports))

let verdict s = if s.saturated then "saturated" else "ok"

(* Highest offered rate whose run is unsaturated, by a deterministic
   search: [ok lo] is known to hold; [hi] starts at 4x and doubles while it
   still holds (up to 64x), then [bisections] narrow the bracket.
   Returns the highest rate seen to hold, with the number of probes run. *)
let bisections = 7

let capacity ~lo ok =
  let probes = ref 0 in
  let ok r =
    incr probes;
    ok r
  in
  let ceiling = 64. *. lo in
  let rec widen lo hi = if hi <= ceiling && ok hi then widen hi (2. *. hi) else (lo, hi) in
  let lo, hi = widen lo (4. *. lo) in
  let rec narrow lo hi n =
    if n = 0 then lo
    else
      let mid = (lo +. hi) /. 2. in
      if ok mid then narrow mid hi (n - 1) else narrow lo mid (n - 1)
  in
  let cap = narrow lo hi bisections in
  (cap, !probes)
