(* The command-line knobs shared by svm_run and bench: every malformed or
   out-of-range value is rejected with one line before anything runs, and
   the explicit-default flag sets resolve to the configuration of no flags
   at all — with determinism and the identity golden, the same report. *)

open Cmdliner

let check = Alcotest.check

(* Evaluates [term] on [args] under [Cli.eval], handing the parsed value to
   [f]; returns the exit code and everything written to the error stream. *)
let eval term f args =
  let buf = Buffer.create 128 in
  let err = Format.formatter_of_buffer buf in
  let argv = Array.of_list ("prog" :: args) in
  let code = Cli.eval ~err ~argv (Cmd.v (Cmd.info "prog") Term.(const f $ term)) in
  Format.pp_print_flush err ();
  (code, Buffer.contents buf)

let knobs = Term.(const (fun c r -> (c, r)) $ Cli.common $ Cli.run)

(* [args] must fail with exit 2 and one [prog: ...] line, and [f] — the
   stand-in for the simulation — must never be entered. *)
let rejects term ?(f = fun _ -> ()) args =
  let ran = ref false in
  let code, err =
    eval term
      (fun v ->
        f v;
        ran := true)
      args
  in
  let what = String.concat " " args in
  check Alcotest.int (what ^ ": exit code") 2 code;
  check Alcotest.bool (what ^ ": nothing ran") false !ran;
  check Alcotest.bool
    (Printf.sprintf "%s: one line naming the program (%S)" what err)
    true
    (String.starts_with ~prefix:"prog: " err
    && String.index_opt err '\n' = Some (String.length err - 1))

let test_common_rejects () =
  List.iter (rejects Cli.common)
    [
      [ "--kv-ops"; "0" ];
      [ "--kv-ops"; "many" ];
      [ "--kv-ops" ];
      [ "--kv-rate"; "0" ];
      [ "--kv-keys"; "0" ];
      [ "--kv-theta"; "1.5" ];
      [ "--kv-write-ratio"; "2" ];
      [ "--kv-txn-ratio=-0.5" ];
      [ "--kv-buckets"; "0" ];
      [ "--fault-batch"; "0" ];
      [ "--trace-cap"; "0" ];
      [ "--trace-format"; "xml" ];
      [ "--metrics-interval=-1" ];
      [ "--drop-rate"; "2" ];
      [ "--dup-rate=-0.1" ];
      [ "--jitter=-4" ];
      [ "--straggler"; "0.5" ];
      [ "--fault-seed"; "x" ];
      [ "--scale"; "huge" ];
      [ "--verify"; "maybe" ];
      [ "--no-verify" ];
    ]

(* svm_run's own knobs are range-checked by [Config.make], which [f] calls
   the way svm_run does before it simulates anything. *)
let test_run_rejects () =
  List.iter
    (rejects knobs ~f:(fun (c, r) -> ignore (Cli.config c r ~nprocs:8)))
    [
      [ "--protocol"; "xyz" ];
      [ "--repl-scheme"; "mirror" ];
      [ "--detector"; "psychic" ];
      [ "--replicas"; "0" ];
      [ "--replicas"; "9" ];
      [ "--replicas"; "2"; "--protocol"; "aurc" ];
      [ "--kill-node"; "0" ];
      [ "--kill-node"; "8" ];
      [ "--partition"; "1,1" ];
      [ "--hb-interval"; "0" ];
      [ "--hb-timeout=-1" ];
    ]

let table = [ ("table1", 1); ("table2", 2); ("all", 0) ]

let test_positionals () =
  let picks args =
    let got = ref [] in
    let code, _ =
      eval (Cli.positionals ~docv:"ARTIFACT" ~doc:"." ~default:[ "all" ] table)
        (fun v -> got := v)
        args
    in
    check Alcotest.int "accepted" 0 code;
    !got
  in
  check Alcotest.(list int) "default" [ 0 ] (picks []);
  check Alcotest.(list int) "command-line order" [ 2; 1 ] (picks [ "table2"; "table1" ]);
  rejects (Cli.positionals ~docv:"ARTIFACT" ~doc:"." ~default:[ "all" ] table) [ "bogus" ]

let test_failure_is_one_line () =
  let code, err = eval Cli.common (fun _ -> failwith "boom") [] in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.string "message" "prog: boom\n" err

let parse args =
  let got = ref None in
  let code, err = eval knobs (fun v -> got := Some v) args in
  match (code, !got) with
  | 0, Some v -> v
  | _ -> Alcotest.failf "%s rejected: %s" (String.concat " " args) err

let test_defaults_and_overrides () =
  let c, _ = parse [] in
  check Alcotest.int "fault seed" 1 c.Cli.chaos.Machine.Chaos.fault_seed;
  check Alcotest.bool "verify" true c.Cli.verify;
  check Alcotest.bool "no kv flags" false (Cli.kv_given c);
  let c, _ =
    parse [ "--scale"; "test"; "--kv-ops"; "5"; "--kv-theta"; "0.5"; "--kv-buckets"; "8" ]
  in
  let p = Cli.kvstore_params c in
  check Alcotest.bool "kv flags" true (Cli.kv_given c);
  check Alcotest.int "ops" 5 p.Apps.Kvstore.traffic.Traffic.ops;
  check (Alcotest.float 0.) "theta" 0.5 p.Apps.Kvstore.traffic.Traffic.theta;
  check Alcotest.int "buckets" 8 p.Apps.Kvstore.buckets;
  check Alcotest.int "keys keep the scale default"
    (Apps.Registry.kvstore_params Apps.Registry.Test).Apps.Kvstore.traffic.Traffic.keys
    p.Apps.Kvstore.traffic.Traffic.keys

(* The explicit-default flag sets of the former CI byte-identity steps
   (zero chaos, fault batch 1, oracle detector, one replica under either
   scheme, zero metrics interval), each on the protocols that step swept. *)
let identity_cases =
  [
    ( [ "lrc"; "olrc"; "hlrc"; "ohlrc"; "aurc"; "rc" ],
      [ "--drop-rate"; "0"; "--dup-rate"; "0"; "--jitter"; "0"; "--straggler"; "1" ] );
    ([ "hlrc" ], [ "--fault-batch"; "1" ]);
    ([ "lrc"; "hlrc" ], [ "--detector"; "oracle" ]);
    ([ "lrc"; "olrc"; "hlrc"; "ohlrc" ], [ "--replicas"; "1"; "--repl-scheme"; "inval" ]);
    ([ "lrc"; "olrc"; "hlrc"; "ohlrc" ], [ "--replicas"; "1"; "--repl-scheme"; "backup" ]);
    ([ "lrc"; "hlrc" ], [ "--metrics-interval"; "0" ]);
  ]

let test_explicit_defaults () =
  let config args =
    let c, r = parse args in
    Cli.config c r ~nprocs:8
  in
  List.iter
    (fun (protocols, flags) ->
      List.iter
        (fun p ->
          let base = [ "--protocol"; p; "--scale"; "test" ] in
          check Alcotest.bool
            (Printf.sprintf "%s %s" p (String.concat " " flags))
            true
            (config base = config (base @ flags)))
        protocols)
    identity_cases

let suite =
  [
    ("shared knobs reject bad values", `Quick, test_common_rejects);
    ("svm_run knobs reject bad values", `Quick, test_run_rejects);
    ("artifact positionals", `Quick, test_positionals);
    ("command failure is one line", `Quick, test_failure_is_one_line);
    ("defaults and kv overrides", `Quick, test_defaults_and_overrides);
    ("explicit defaults resolve to the default config", `Quick, test_explicit_defaults);
  ]
