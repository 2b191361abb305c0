(** Host-time profiler: a SIGPROF call-stack sampler for finding where the
    simulator itself spends CPU time.

    Known bias: samples land at OCaml poll points, and a poll point with no
    debug info (a loop's back edge, typically) is charged to the function
    containing it, so an anonymous or inlined loop body shows up as its
    caller (e.g. [Intervals.end_interval.(fun)]). The output depends on the
    host and the build. *)

type t = {
  samples : int;
  leaf : (string * int) list;  (** Innermost function, most samples first. *)
  inclusive : (string * int) list;
      (** Every function on the stack, counted once per sample. *)
}

(** [run f] runs [f] with an [ITIMER_PROF] timer firing every 0.5 ms of
    CPU time, recording up to 256 frames per sample. The timer and the
    previous [SIGPROF] behavior are restored when [f] returns or raises. *)
val run : (unit -> 'a) -> 'a * t

(** The sample count, then the top 25 functions by leaf and by inclusive
    share. *)
val pp : Format.formatter -> t -> unit
