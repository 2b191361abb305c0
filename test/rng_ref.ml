(* Boxed splitmix64: the reference model [Sim.Rng] is checked against in
   test_sim.ml. The state is a [mutable int64] field and [int] retries
   through a local recursive closure, which is the straightforward
   transcription of the algorithm; [Sim.Rng] keeps its state unboxed and
   must draw bit-identical streams. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let next_seed t =
  t.state <- Int64.add t.state golden_gamma;
  t.state

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t = mix64 (next_seed t)

let split t = { state = bits64 t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let b = Int64.of_int bound in
  let rec draw () =
    let bits = Int64.shift_right_logical (bits64 t) 1 in
    let r = Int64.rem bits b in
    if Int64.compare (Int64.add (Int64.sub bits r) (Int64.sub b 1L)) 0L < 0 then draw ()
    else Int64.to_int r
  in
  draw ()

let float t bound =
  bound *. (Int64.to_float (Int64.shift_right_logical (bits64 t) 11) /. 9007199254740992.0)
