(** Word-granularity diffs.

    A diff records the words of a page that changed relative to its twin,
    as parallel [offsets]/[values] arrays in increasing offset order (both
    flat — no per-word boxing). Applying a diff overwrites exactly those
    words, which is what lets multiple concurrent writers of disjoint
    words on the same page merge correctly. *)

type t = private { page : int; offsets : int array; values : float array }

(** [create ~page ~twin ~current] computes the diff between [twin] (the clean
    copy) and [current] (the dirty copy). Float comparison is bit-wise so
    that a write of the same value is (correctly) not treated as a change,
    matching memcmp-based diffing. Both must have equal length. *)
val create : page:int -> twin:Words.t -> current:Words.t -> t

(** [create_range ~page ~twin ~current ~lo ~hi] is {!create} restricted to
    the words [lo .. hi]: the same scan, over the range only. It equals
    {!create} whenever [twin] and [current] agree bit for bit outside the
    range. An empty range ([lo > hi]) gives the empty diff.
    @raise Invalid_argument if a non-empty range leaves the page, or the
    lengths differ. *)
val create_range : page:int -> twin:Words.t -> current:Words.t -> lo:int -> hi:int -> t

(** [apply ?obs t data] writes the diff's words into [data]. When [obs] is
    given, a typed {!Obs.Trace.Diff_apply} event (page, changed words, wire
    bytes) is emitted through it — the structured-observability hook the
    simulator's runtime threads down here so every observed diff
    application is attributed to the node whose copy it mutates. *)
val apply : ?obs:(Obs.Trace.kind -> unit) -> t -> Words.t -> unit

(** The {!Obs.Trace.Diff_create} event describing this diff, for callers
    that observe diff construction. *)
val created_event : t -> Obs.Trace.kind

val is_empty : t -> bool

val word_count : t -> int

(** On-the-wire / in-memory size: one word of header per entry pair plus a
    small fixed header, matching the paper's run-length encoded diffs. *)
val size_bytes : t -> int

(** [merge older newer] produces a diff equivalent to applying [older] then
    [newer]. Both must be diffs of the same page. *)
val merge : t -> t -> t

(** [iter f t] calls [f offset value] for each entry in offset order. *)
val iter : (int -> float -> unit) -> t -> unit

val pp : Format.formatter -> t -> unit
