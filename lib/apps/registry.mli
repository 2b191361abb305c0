(** Application registry: the paper's five benchmarks (plus the §4.8 SOR
    variant) at three problem scales. *)

(** [Test] keeps unit tests fast; [Bench] is the default for table
    generation; [Full] runs closer to the paper's
    compute-to-communication ratios (longer wall-clock). *)
type scale = Test | Bench | Full

(** The command-line and report spelling of a scale (["test"] | ["bench"] |
    ["full"]). *)
val scale_name : scale -> string

(** The spellings {!scale_of_string} accepts, in [Test; Bench; Full] order. *)
val scale_strings : string list

(** Case-insensitive inverse of {!scale_name}. *)
val scale_of_string : string -> scale option

type t = {
  name : string;
  body : verify:bool -> Svm.Api.ctx -> unit;
      (** The SPMD process body; with [~verify:true] process 0 checks the
          final shared memory against the sequential reference. *)
  description : string;  (** Problem-size summary for Table 1. *)
}

val lu : scale -> t

val sor : scale -> t

(** SOR with a zero interior: the paper's §4.8 LRC-favourable ablation. *)
val sor_zero : scale -> t

val water_nsq : scale -> t

val water_spatial : scale -> t

val raytrace : scale -> t

(** Sharded key-value store serving workload (open-loop Zipfian traffic);
    see {!Kvstore}. *)
val kvstore : scale -> t

(** The scale-default kvstore parameters — the base the CLIs' [--kv-*]
    overrides patch before {!kvstore_of_params}. *)
val kvstore_params : scale -> Kvstore.params

val kvstore_of_params : Kvstore.params -> t

(** The paper's five applications (its Table 1), in its order — the set
    the bench tables/figures sweep. The serving workload is not included
    (it has no speedup-vs-sequential story); reach it via {!find}. *)
val all : scale -> t list

(** Look up by CLI name; see {!names}. *)
val find : string -> scale -> t option

(** Every registered application name, in CLI order. [find] succeeds on
    exactly these; derive usage/error text from this list rather than
    hardcoding it. *)
val names : string list
