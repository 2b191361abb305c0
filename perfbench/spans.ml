(* Host-clock spans around the benchmark's calls into each layer: name,
   start, end and parent, kept in memory and written out at the end. *)

type span = { id : int; name : string; parent : int; start_ns : int64; end_ns : int64 }

let origin = Runner.now_ns ()

let finished : span list ref = ref []

let stack : int list ref = ref []

let next_id = ref 0

let with_ name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let start_ns = Runner.now_ns () in
  let close () =
    stack := List.tl !stack;
    finished := { id; name; parent; start_ns; end_ns = Runner.now_ns () } :: !finished
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let count () = List.length !finished

(* Chrome trace_event JSON (complete events, microseconds from the start
   of the process), loadable in Perfetto; [parent] is kept as an arg. *)
let to_json () =
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  Obs.Json.Obj
    [
      ( "traceEvents",
        Obs.Json.List
          (List.rev_map
             (fun s ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.String s.name);
                   ("ph", Obs.Json.String "X");
                   ("pid", Obs.Json.Int 0);
                   ("tid", Obs.Json.Int 0);
                   ("ts", Obs.Json.Float (us s.start_ns));
                   ("dur", Obs.Json.Float (us s.end_ns -. us s.start_ns));
                   ( "args",
                     Obs.Json.Obj [ ("id", Obs.Json.Int s.id); ("parent", Obs.Json.Int s.parent) ]
                   );
                 ])
             !finished) );
    ]

let write path =
  let oc = open_out path in
  output_string oc (Obs.Json.to_string (to_json ()));
  output_char oc '\n';
  close_out oc
