(** The command-line knobs of [svm_run] and [bench], each defined once.

    {!common} is the knob set both CLIs share: the problem scale,
    verification, the chaos plan, the trace and report outputs, batched
    fault handling, the metrics cadence and the kvstore workload. {!run}
    holds the knobs only [svm_run] takes, the ones that shape a single
    {!Svm.Config.t}; it lives here so tests can evaluate it.

    Range checks are the library validators' ([Svm.Config.make],
    [Machine.Chaos.validate] through it, and [Apps.Kvstore.validate]),
    applied once while the command line is evaluated — before any cell is
    simulated. *)

open Cmdliner

(** [--kv-*] overrides of the scale's default kvstore parameters; [None]
    keeps the default. *)
type kv = {
  ops : int option;
  rate : float option;
  keys : int option;
  theta : float option;
  write_ratio : float option;
  txn_ratio : float option;
  buckets : int option;
}

type common = {
  scale : Apps.Registry.scale;
  verify : bool;
  chaos : Machine.Chaos.params;
      (** Drop/duplicate rates, jitter, straggler factor and fault seed;
          the fault schedule is empty. *)
  fault_batch : int;
  metrics_interval : float;
  json_out : string option;
  trace_out : string option;
  trace_format : Obs.Export.format;
  trace_cap : int;
  kv : kv;
}

(** The shared knobs, validated. *)
val common : common Term.t

(** Whether any [--kv-*] flag was given. *)
val kv_given : common -> bool

(** The scale's default kvstore parameters with every [--kv-*] override
    applied. *)
val kvstore_params : common -> Apps.Kvstore.params

(** [svm_run]'s configuration-only knobs. *)
type run = {
  protocol : Svm.Config.protocol;
  seed : int;
  migrate : bool;
  coproc_locks : bool;
  replicas : int;
  repl_scheme : Svm.Config.repl_scheme;
  detector : Svm.Config.detector;
  hb_interval : float;
  hb_timeout : float;
  faults : Machine.Chaos.fault list;
      (** The [--kill-node], [--pause] and [--partition] schedule. *)
  detect_delay : float;
}

val run : run Term.t

(** The configuration both knob sets describe on [nprocs] nodes.
    Raises [Invalid_argument] as {!Svm.Config.make} does. *)
val config : ?trace_spans:bool -> common -> run -> nprocs:int -> Svm.Config.t

(** Zero or more positional arguments, each naming a row of the table;
    evaluates to the rows' values in command-line order, or to [default]
    when none is given. The help text lists the names. *)
val positionals :
  docv:string -> doc:string -> default:string list -> (string * 'a) list -> 'a list Term.t

(** [eval ?err ?argv cmd] evaluates [cmd] on [argv] (default
    {!Sys.argv}) and returns the exit code: 0 once the command ran or
    printed its help; 2 for a rejected command line — an unknown option, a
    malformed or out-of-range value, or a [Failure]/[Invalid_argument]
    raised by the command — after writing the one line
    [<prog>: <message>] to [err] (default stderr). *)
val eval : ?err:Format.formatter -> ?argv:string array -> unit Cmd.t -> int
