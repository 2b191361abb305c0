(** Calendar queue: the engine's event set.

    Same ordering contract as a binary min-heap — entries pop in lexicographic
    [(key, insertion order)] order, so equal keys pop FIFO — but O(1)
    amortised push/pop for the mostly-increasing timestamp streams a
    discrete-event simulation produces, and pooled storage (parallel flat
    arrays per bucket) instead of a per-entry record, so steady-state
    operation allocates almost nothing.

    Keys must not be NaN; [push] raises on NaN. *)

type 'a t

(** [create ?capacity ()] sizes the initial bucket array for roughly
    [capacity] pending entries (it adapts afterwards either way). *)
val create : ?capacity:int -> unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push q ~key v] inserts [v] with priority [key]. Entries with equal
    keys pop in FIFO order. @raise Invalid_argument on NaN keys. *)
val push : 'a t -> key:float -> 'a -> unit

(** [pop_min q] removes and returns the minimum entry as [(key, v)],
    dropping the queue's reference to [v].
    @raise Invalid_argument if the queue is empty. *)
val pop_min : 'a t -> float * 'a

(** [peek_min q] returns the minimum entry without removing it.
    @raise Invalid_argument if the queue is empty. *)
val peek_min : 'a t -> float * 'a

val clear : 'a t -> unit
