(* Host-time profiler: a SIGPROF call-stack sampler.

   An ITIMER_PROF timer interrupts the process every [interval] of CPU
   time; the handler runs at the next OCaml poll point and records the
   call stack there ([Printexc.get_callstack]). Each sample charges its
   innermost function ("leaf") and, once each, every function on the stack
   ("inclusive"). The output depends on the host and the build, so it is
   for finding hotspots, not for committing numbers. The kernel may round
   the interval up to its timer tick (4 ms at HZ=250), which only thins
   the samples.

   Known bias: a sample lands where the program next polls, and a poll
   point that carries no debug info (the back edge of a loop, typically)
   is charged to the function that contains it — an inlined or anonymous
   loop body shows up as its caller, e.g. a diff scan inside a closure of
   [Intervals.end_interval] as [Intervals.end_interval.(fun)]. *)

type t = { samples : int; leaf : (string * int) list; inclusive : (string * int) list }

(* "Svm__Intervals.end_interval" -> "Intervals.end_interval": drop the
   library wrappers dune puts in front of the module name. *)
let short name =
  let dot = Option.value (String.index_opt name '.') ~default:(String.length name) in
  let rec unwrap i =
    if i < 0 then name
    else if name.[i] = '_' && name.[i + 1] = '_' then
      String.sub name (i + 2) (String.length name - i - 2)
    else unwrap (i - 1)
  in
  unwrap (dot - 2)

let self = "Hostprof."

let is_self name =
  String.length name >= String.length self && String.sub name 0 (String.length self) = self

let bump tbl k = Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0)

let sorted tbl =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun (ka, a) (kb, b) -> if a <> b then compare b a else compare ka kb)

(* 0.5 ms of CPU time between samples, at most 256 frames each. *)
let interval = 0.0005

let depth = 256

let run f =
  let leaf = Hashtbl.create 64 and inclusive = Hashtbl.create 64 in
  let samples = ref 0 in
  let on_sample _ =
    match Printexc.backtrace_slots (Printexc.get_callstack depth) with
    | None -> ()
    | Some slots ->
        let names =
          Array.to_list slots
          |> List.filter_map (fun s -> Option.map short (Printexc.Slot.name s))
          |> List.filter (fun n -> not (is_self n))
        in
        (match names with
        | [] -> ()
        | top :: _ ->
            incr samples;
            bump leaf top;
            List.iter (bump inclusive) (List.sort_uniq compare names))
  in
  let timer v = { Unix.it_interval = v; it_value = v } in
  let previous = Sys.signal Sys.sigprof (Sys.Signal_handle on_sample) in
  ignore (Unix.setitimer Unix.ITIMER_PROF (timer interval));
  let result =
    Fun.protect
      ~finally:(fun () ->
        ignore (Unix.setitimer Unix.ITIMER_PROF (timer 0.));
        Sys.set_signal Sys.sigprof previous)
      f
  in
  (result, { samples = !samples; leaf = sorted leaf; inclusive = sorted inclusive })

let pp ppf p =
  let pct n = if p.samples = 0 then 0. else 100. *. float_of_int n /. float_of_int p.samples in
  let table title rows =
    Format.fprintf ppf "@.%s@." title;
    List.iteri
      (fun i (name, n) ->
        if i < 25 then Format.fprintf ppf "  %6.2f%% %7d  %s@." (pct n) n name)
      rows
  in
  Format.fprintf ppf "%d samples@." p.samples;
  table "leaf (innermost function)" p.leaf;
  table "inclusive (anywhere on the stack)" p.inclusive
