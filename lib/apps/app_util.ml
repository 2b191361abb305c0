(* Shared helpers for the benchmark applications. *)

exception Verification_failed of string

let failf fmt = Format.kasprintf (fun s -> raise (Verification_failed s)) fmt

(* Relative-error comparison; reductions may be reassociated across
   protocols and node counts, so exact equality only holds for integer and
   single-writer data. *)
let close ?(tol = 1e-9) a b =
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= tol *. scale

let check_close ~what ?(tol = 1e-9) ~index expected actual =
  if not (close ~tol expected actual) then
    failf "%s[%d]: expected %.12g, got %.12g" what index expected actual

(* Deterministic pseudo-random doubles in [0, 1), identical for the
   simulated app and its sequential reference. *)
let det_float ~seed i = Sim.Rng.seed_float (seed + (i * 2654435761))

(* Partition [0, n) into [nparts] contiguous chunks; returns (start, stop)
   of chunk [part], stop exclusive. Remainders spread over the first
   chunks. *)
let chunk ~n ~nparts part =
  let base = n / nparts and extra = n mod nparts in
  let start = (part * base) + min part extra in
  let len = base + if part < extra then 1 else 0 in
  (start, start + len)

(* Owner of index [i] under the same partitioning. *)
let owner_of ~n ~nparts i =
  let rec find part =
    let lo, hi = chunk ~n ~nparts part in
    if i >= lo && i < hi then part else find (part + 1)
  in
  if i < 0 || i >= n then invalid_arg "owner_of" else find 0
