(** Boxed splitmix64 generator: the reference model for {!Sim.Rng}'s
    stream-equivalence tests. Same seeds, same draws, bit for bit. *)

type t

val create : seed:int -> t

val split : t -> t

val bits64 : t -> int64

(** Rejection sampling, as {!Sim.Rng.int}. *)
val int : t -> int -> int

val float : t -> float -> float
