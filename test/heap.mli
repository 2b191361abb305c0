(** Imperative binary min-heap keyed by [float * int]: the reference model
    for {!Sim.Cqueue}'s equivalence tests.

    The integer component is a tie-breaker so that two entries with equal
    float keys pop in insertion order, which keeps discrete-event simulations
    deterministic. *)

type 'a t

(** [create ?capacity ()] presizes for [capacity] entries, for callers
    that know the event population up front. *)
val create : ?capacity:int -> unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push h ~key v] inserts [v] with priority [key]. Entries with equal keys
    pop in FIFO order. *)
val push : 'a t -> key:float -> 'a -> unit

(** [pop_min h] removes and returns the minimum entry as [(key, v)]. The
    heap drops its reference to [v] — long-lived heaps never pin popped
    payloads (event closures, page data) in vacated backing-array slots.
    @raise Invalid_argument if the heap is empty. *)
val pop_min : 'a t -> float * 'a

(** [peek_min h] returns the minimum entry without removing it.
    @raise Invalid_argument if the heap is empty. *)
val peek_min : 'a t -> float * 'a

val clear : 'a t -> unit
