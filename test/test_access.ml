(* The block accessors ([Api.read_block]/[write_block]) against the
   per-word loop they replace: same memory, same simulated time, same
   faults, under every protocol and with a chaos straggler. *)

let check = Alcotest.check

let page_words = 64

(* Each process owns a region of 3.5 pages, so neighbours share the page
   between them (false sharing: twins and diffs under the multiple-writer
   protocols, mirrors under AURC). Its range starts [start] words into the
   region and spans 1-3 pages. *)
let region = (3 * page_words) + (page_words / 2)

type access = Block | Word

let read_range access ctx ~addr ~len buf =
  match access with
  | Block -> Svm.Api.read_block ctx ~addr ~len buf
  | Word ->
      for i = 0 to len - 1 do
        buf.(i) <- Svm.Api.read ctx (addr + i)
      done

let write_range access ctx ~addr ~len buf =
  match access with
  | Block -> Svm.Api.write_block ctx ~addr ~len buf
  | Word ->
      for i = 0 to len - 1 do
        Svm.Api.write ctx (addr + i) buf.(i)
      done

(* Write the own range, read the next process's, write the own range again
   from what was read, then read the whole array: every access goes
   through [access], and the values read are recorded for comparison. *)
let program access ranges seen ctx =
  let me = Svm.Api.pid ctx and np = Svm.Api.nprocs ctx in
  if me = 0 then ignore (Svm.Api.malloc ctx ~name:"d" (np * region));
  Svm.Api.barrier ctx;
  Svm.Api.start_timing ctx;
  let d = Svm.Api.root ctx "d" in
  let addr p = d + (p * region) + fst ranges.(p) and len p = snd ranges.(p) in
  let buf = Array.init (len me) (fun i -> float_of_int ((me * 1000) + i)) in
  write_range access ctx ~addr:(addr me) ~len:(len me) buf;
  Svm.Api.compute ctx 5.;
  Svm.Api.barrier ctx;
  let next = (me + 1) mod np in
  let got = Array.make (len next) 0. in
  read_range access ctx ~addr:(addr next) ~len:(len next) got;
  Svm.Api.compute ctx 3.;
  let mine = Array.mapi (fun i v -> v +. got.(i mod len next)) buf in
  write_range access ctx ~addr:(addr me) ~len:(len me) mine;
  Svm.Api.barrier ctx;
  let all = Array.make (np * region) 0. in
  read_range access ctx ~addr:d ~len:(np * region) all;
  seen.(me) <- Array.append got all;
  Svm.Api.barrier ctx

let nprocs = 4

let outcome cfg access ranges =
  let seen = Array.make nprocs [||] in
  let sink = Obs.Trace.create_sink ~capacity:65536 () in
  let r = Svm.Runtime.run ~sink cfg (program access ranges seen) in
  (r, Svm.Report_json.to_string r, Obs.Export.jsonl sink, seen)

let faults (r : Svm.Runtime.report) =
  Array.fold_left
    (fun (rm, wf) (n : Svm.Runtime.node_report) ->
      (rm + n.nr_counters.Svm.Stats.read_misses, wf + n.nr_counters.Svm.Stats.write_faults))
    (0, 0) r.Svm.Runtime.r_nodes

let protocols = List.filter_map Svm.Config.protocol_of_string Svm.Config.protocol_strings

let case_gen =
  QCheck.Gen.(
    triple (oneofl protocols) bool
      (array_repeat nprocs
         (int_range 1 (page_words - 1) >>= fun start ->
          int_range 1 (2 * page_words) >|= fun len -> (start, len))))

let print_case (proto, straggler, ranges) =
  Printf.sprintf "%s%s [%s]" (Svm.Config.protocol_name proto)
    (if straggler then " +straggler" else "")
    (String.concat "; "
       (Array.to_list (Array.map (fun (s, l) -> Printf.sprintf "+%d x%d" s l) ranges)))

let prop_block_is_word_loop =
  QCheck.Test.make ~name:"block accessors == per-word loop (every protocol)" ~count:60
    (QCheck.make ~print:print_case case_gen) (fun (proto, straggler, ranges) ->
      let chaos =
        if straggler then
          Some { Machine.Chaos.none with Machine.Chaos.straggler = 1.7; fault_seed = 3 }
        else None
      in
      let cfg = Svm.Config.make ~page_words ?chaos ~nprocs proto in
      let rb, jb, tb, sb = outcome cfg Block ranges in
      let rw, jw, tw, sw = outcome cfg Word ranges in
      let fail what = QCheck.Test.fail_reportf "%s differs" what in
      if rb.Svm.Runtime.r_mem_digest <> rw.Svm.Runtime.r_mem_digest then fail "memory digest";
      if rb.Svm.Runtime.r_elapsed <> rw.Svm.Runtime.r_elapsed then fail "elapsed";
      if
        Array.exists2
          (fun (a : Svm.Runtime.node_report) (b : Svm.Runtime.node_report) ->
            a.nr_breakdown <> b.nr_breakdown || a.nr_counters <> b.nr_counters)
          rb.Svm.Runtime.r_nodes rw.Svm.Runtime.r_nodes
      then fail "breakdown or counters";
      if faults rb <> faults rw then fail "fault count";
      if jb <> jw then fail "report";
      if tb <> tw then fail "trace";
      if sb <> sw then fail "values read";
      true)

(* [len] is validated before anything moves: no word, no charge. *)
let test_len_rejected () =
  let rejected f = try f (); false with Invalid_argument _ -> true in
  ignore
    (Svm.Runtime.run (Svm.Config.make ~page_words ~nprocs:1 Svm.Config.Hlrc) (fun ctx ->
         let a = Svm.Api.malloc ctx 256 in
         Svm.Api.write_block ctx ~addr:a ~len:4 [| 1.; 2.; 3.; 4. |];
         let t0 = Svm.Api.now ctx in
         let buf = Array.make 4 7. in
         List.iter
           (fun len ->
             check Alcotest.bool "read_block rejects len" true
               (rejected (fun () -> Svm.Api.read_block ctx ~addr:a ~len buf));
             check Alcotest.bool "write_block rejects len" true
               (rejected (fun () -> Svm.Api.write_block ctx ~addr:a ~len buf)))
           [ -1; 5 ];
         check (Alcotest.array (Alcotest.float 0.)) "buffer untouched" (Array.make 4 7.) buf;
         check (Alcotest.float 0.) "nothing charged" t0 (Svm.Api.now ctx);
         let mem = Array.make 4 0. in
         Svm.Api.read_block ctx ~addr:a ~len:4 mem;
         check (Alcotest.array (Alcotest.float 0.)) "memory untouched" [| 1.; 2.; 3.; 4. |] mem;
         Svm.Api.read_block ctx ~addr:a ~len:0 [||]))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_block_is_word_loop;
    ("block len rejected up front", `Quick, test_len_rejected);
  ]
