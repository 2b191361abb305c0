(** Shared helpers for the benchmark applications. *)

exception Verification_failed of string

(** Raise {!Verification_failed} with a formatted message. *)
val failf : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Relative-error comparison (reductions may be reassociated across
    protocols and node counts). *)
val close : ?tol:float -> float -> float -> bool

(** Assert two values are {!close}, naming the array and index otherwise. *)
val check_close : what:string -> ?tol:float -> index:int -> float -> float -> unit

(** Deterministic pseudo-random double in [0, 1), identical for a simulated
    application and its sequential reference. *)
val det_float : seed:int -> int -> float

(** [chunk ~n ~nparts part] is the [(start, stop)] (stop exclusive) of the
    [part]-th contiguous chunk of [0, n); remainders spread over the first
    chunks. *)
val chunk : n:int -> nparts:int -> int -> int * int

(** Owner of index [i] under the same partitioning. *)
val owner_of : n:int -> nparts:int -> int -> int
