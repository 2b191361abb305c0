(** Page word storage: a flat [float64] Bigarray.

    Page data, twins and mirrors used to be [float array]; the Bigarray
    representation keeps the same unboxed flat layout but lets the hot
    access paths ([Svm.Api.read]/[write], {!Diff.create}) compile to direct
    loads and stores with no per-word boxing, and its contents are ignored
    by the OCaml GC (no scan cost for hundreds of megabytes of simulated
    memory at Full scale).

    [get]/[set] are bounds-checked; the [unsafe_] variants are not and are
    reserved for loops whose index range is already validated against
    {!length}. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Zero-filled. *)
val make : int -> t

external length : t -> int = "%caml_ba_dim_1"

external get : t -> int -> float = "%caml_ba_ref_1"

external set : t -> int -> float -> unit = "%caml_ba_set_1"

external unsafe_get : t -> int -> float = "%caml_ba_unsafe_ref_1"

external unsafe_set : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"

val fill : t -> float -> unit

(** [blit ~src ~dst] copies [src] into [dst]; lengths must match. *)
val blit : src:t -> dst:t -> unit

val copy : t -> t

val of_array : float array -> t

val to_array : t -> float array

val iter : (float -> unit) -> t -> unit

val iteri : (int -> float -> unit) -> t -> unit

(** A free list of page-length buffers.

    Page copies, twins and fetch snapshots all have one length and die at
    known protocol points; recycling them there keeps the off-heap Bigarray
    traffic (and the major collections it provokes) off the host. A pool
    belongs to one run: it is not shared between domains and has no cap,
    so it holds at most the run's peak number of released buffers. *)
module Pool : sig
  type words := t

  type t

  (** [create ?poison page_words]. With [poison], {!release} fills the
      buffer with NaN, so a read through a released buffer shows up as a
      corrupted value rather than a plausible stale one (a testing aid). *)
  val create : ?poison:bool -> int -> t

  val page_words : t -> int

  (** A zero-filled buffer, recycled when one is free. *)
  val take_zero : t -> words

  (** A bit-exact copy of [src], recycled when a buffer is free.
      @raise Invalid_argument if [src] is not page-length. *)
  val take_copy : t -> words -> words

  (** Return a dead buffer to the free list. The caller must hold the only
      live reference to it.
      @raise Invalid_argument if it is not page-length. *)
  val release : t -> words -> unit

  (** The buffers on the free list, most recently released last. *)
  val iter_free : (words -> unit) -> t -> unit
end
