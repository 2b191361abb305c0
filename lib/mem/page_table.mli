(** Per-node simulated page table.

    Every node has its own table. An entry tracks the node's local copy of
    the page (if any), its software protection state, the twin used for diff
    creation, and whether the page was written during the current interval. *)

type protection = No_access | Read_only | Read_write

type entry = {
  page : int;
  mutable data : Words.t option;  (** Local copy; [None] = not cached. *)
  mutable prot : protection;
  mutable twin : Words.t option;
  mutable dirty : bool;  (** Written during the current interval. *)
  mutable mirror : Words.t option;
      (** Write-through target: stores to this page are replicated into this
          array as they happen (the automatic-update hardware of AURC). *)
  mutable mirror_pending : int;
      (** Words written through since the last flush accounting. *)
  mutable lo : int;
  mutable hi : int;
      (** Written-word range [\[lo, hi\]] since the twin was made (empty
          when [lo > hi]). Every store widens it; {!make_twin} resets it.
          Invariant: outside the range, a twinned page's data equals its
          twin bit for bit, so {!diff} scans the range only. *)
}

type t

(** [create ?paranoid ?node ~pool layout]: every page-length buffer the
    table attaches comes from [pool], and every one it drops goes back to
    it. One pool serves all the tables of a run, since a fetched copy moves
    from one node's table to another's. Under [paranoid] every {!diff} is
    cross-checked against the full-page scan; [node] names the owner in
    that check's failure.
    @raise Invalid_argument if the pool's length is not the page length. *)
val create : ?paranoid:bool -> ?node:int -> pool:Words.Pool.t -> Layout.t -> t

val layout : t -> Layout.t

(** Highest allocated page id + 1. *)
val npages : t -> int

(** [ensure t page] returns the entry for [page], creating an uncached,
    inaccessible one if needed. *)
val ensure : t -> int -> entry

(** [find t page] is the entry if the page was ever touched, without
    creating or growing anything (safe for read-only inspection). *)
val find : t -> int -> entry option

(** [entry t page] like {!ensure} but raises [Invalid_argument] if the page
    was never touched on this node. *)
val entry : t -> int -> entry

(** All entries with a local copy. *)
val cached_pages : t -> entry list

(** [data_exn e] returns the local copy of [e].
    @raise Invalid_argument if the page is not cached. *)
val data_exn : entry -> Words.t

(** Attach a zero-filled local copy. *)
val attach_copy : t -> entry -> Words.t

(** [mark_written e ~lo ~hi] widens the written range to cover the words
    [lo .. hi]. Whoever stores into [e]'s data outside {!Diff.apply} marks
    the words it stored. *)
val mark_written : entry -> lo:int -> hi:int -> unit

(** Make a twin (clean copy) of the current data and empty the written
    range. *)
val make_twin : t -> entry -> unit

(** Drop the twin, if any, and release it to the pool. *)
val drop_twin : t -> entry -> unit

(** Drop the local copy, if any, and release it to the pool. *)
val drop_copy : t -> entry -> unit

(** [diff t e] is the page's diff against its twin, built by scanning the
    written range only ({!Diff.create_range}). Under [paranoid] it is
    compared with the full-page {!Diff.create}; a mismatch fails with one
    line naming the node, page, range and both word counts.
    @raise Invalid_argument if the page has no twin. *)
val diff : t -> entry -> Diff.t

(** [install_copy t e data ~write_through ~dirty_without_twin] makes [data]
    (a buffer the caller owns, e.g. a fetched snapshot) the local copy and
    releases the copy it displaces. Uncommitted local writes survive: a
    dirty page's writes are diffed against its twin ({!diff}), the twin is
    refreshed in place to [data], and the writes are re-applied on top;
    the written range is kept. Under
    [write_through] (AURC) the source copy already holds them, so a dirty
    page without a twin installs as-is; otherwise a dirty page without a
    twin raises [Invalid_argument dirty_without_twin]. A clean page's
    twin, if any, is dropped. *)
val install_copy :
  t -> entry -> Words.t -> write_through:bool -> dirty_without_twin:string -> unit

val iter : t -> (entry -> unit) -> unit
