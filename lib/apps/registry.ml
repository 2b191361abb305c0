(* Application registry: the five benchmarks behind the paper's evaluation,
   at three problem scales. [Test] keeps unit tests fast, [Bench] is the
   default for table generation, [Full] approaches the paper's
   compute-to-communication ratios (longer wall-clock). *)

type scale = Test | Bench | Full

let scale_name = function Test -> "test" | Bench -> "bench" | Full -> "full"

let scale_strings = List.map scale_name [ Test; Bench; Full ]

let scale_of_string s =
  List.find_opt (fun sc -> scale_name sc = String.lowercase_ascii s) [ Test; Bench; Full ]

type t = {
  name : string;
  body : verify:bool -> Svm.Api.ctx -> unit;
  description : string;
}

let lu scale =
  let p =
    match scale with
    | Test -> { Lu.default with n = 64; block = 16 }
    | Bench -> { Lu.default with n = 512; block = 32; flop_us = 0.7 }
    | Full -> { Lu.default with n = 1024; block = 32; flop_us = 0.7 }
  in
  {
    name = Lu.name;
    body = (fun ~verify ctx -> Lu.body ~verify p ctx);
    description = Printf.sprintf "blocked LU factorization, %dx%d, block %d" p.Lu.n p.Lu.n p.Lu.block;
  }

let sor scale =
  let p =
    match scale with
    | Test -> { Sor.default with rows = 64; cols = 64; iters = 4 }
    | Bench -> { Sor.default with rows = 512; cols = 512; iters = 10; flop_us = 6. }
    | Full -> { Sor.default with rows = 1024; cols = 1024; iters = 12; flop_us = 6. }
  in
  {
    name = Sor.name;
    body = (fun ~verify ctx -> Sor.body ~verify p ctx);
    description =
      Printf.sprintf "red-black SOR, %dx%d grid, %d iterations" p.Sor.rows p.Sor.cols p.Sor.iters;
  }

let sor_zero scale =
  let base =
    match scale with
    | Test -> { Sor.default with rows = 64; cols = 64; iters = 4 }
    | Bench -> { Sor.default with rows = 512; cols = 512; iters = 10; flop_us = 6. }
    | Full -> { Sor.default with rows = 1024; cols = 1024; iters = 12; flop_us = 6. }
  in
  let p = { base with Sor.zero_interior = true } in
  {
    name = "SOR-zero";
    body = (fun ~verify ctx -> Sor.body ~verify p ctx);
    description =
      Printf.sprintf "SOR with zero interior (paper 4.8), %dx%d, %d iterations" p.Sor.rows
        p.Sor.cols p.Sor.iters;
  }

let water_nsq scale =
  let p =
    match scale with
    | Test -> { Water_nsq.default with molecules = 96; steps = 2 }
    | Bench -> { Water_nsq.default with molecules = 2048; steps = 2; flop_us = 1.0 }
    | Full -> { Water_nsq.default with molecules = 4096; steps = 2; flop_us = 0.6 }
  in
  {
    name = Water_nsq.name;
    body = (fun ~verify ctx -> Water_nsq.body ~verify p ctx);
    description =
      Printf.sprintf "O(n^2) water, %d molecules, %d steps" p.Water_nsq.molecules
        p.Water_nsq.steps;
  }

let water_spatial scale =
  let p =
    match scale with
    | Test -> { Water_spatial.default with grid = 3; molecules = 96; steps = 2 }
    | Bench -> { Water_spatial.default with grid = 6; molecules = 1024; steps = 2; flop_us = 8. }
    | Full -> { Water_spatial.default with grid = 8; molecules = 2048; steps = 3; flop_us = 6. }
  in
  {
    name = Water_spatial.name;
    body = (fun ~verify ctx -> Water_spatial.body ~verify p ctx);
    description =
      Printf.sprintf "spatial water, %d^3 cells, %d molecules, %d steps" p.Water_spatial.grid
        p.Water_spatial.molecules p.Water_spatial.steps;
  }

let raytrace scale =
  let p =
    match scale with
    | Test -> { Raytrace.default with width = 32; height = 32; tile = 8; spheres = 6 }
    | Bench -> { Raytrace.default with width = 128; height = 128; tile = 8; spheres = 16; flop_us = 6. }
    | Full -> { Raytrace.default with width = 256; height = 256; tile = 8; spheres = 16; flop_us = 4. }
  in
  {
    name = Raytrace.name;
    body = (fun ~verify ctx -> Raytrace.body ~verify p ctx);
    description =
      Printf.sprintf "sphere raytracer, %dx%d image, %dx%d tiles" p.Raytrace.width
        p.Raytrace.height p.Raytrace.tile p.Raytrace.tile;
  }

let kvstore_params scale =
  match scale with
  | Test ->
      (* Sized so a Test run lasts well past the soak harness's fault
         windows (pauses/partitions land within the first ~10 ms). *)
      Kvstore.default
  | Bench ->
      {
        Kvstore.default with
        Kvstore.buckets = 256;
        traffic =
          {
            Kvstore.default.Kvstore.traffic with
            Traffic.ops = 200_000;
            rate = 1_000_000.;
            keys = 65_536;
          };
      }
  | Full ->
      {
        Kvstore.default with
        Kvstore.buckets = 4096;
        traffic =
          {
            Kvstore.default.Kvstore.traffic with
            Traffic.ops = 2_000_000;
            rate = 2_000_000.;
            keys = 1_048_576;
          };
      }

let kvstore_of_params p =
  let tp = p.Kvstore.traffic in
  {
    name = Kvstore.name;
    body = (fun ~verify ctx -> Kvstore.body ~verify p ctx);
    description =
      Printf.sprintf
        "sharded KV store, %d buckets, %d keys (theta %.2f), %d ops at %.0f/s"
        p.Kvstore.buckets tp.Traffic.keys tp.Traffic.theta tp.Traffic.ops tp.Traffic.rate;
  }

let kvstore scale = kvstore_of_params (kvstore_params scale)

(* The paper's five applications (Table 1) — the set the bench tables and
   figures sweep. The serving workload is not among them: it has no
   speedup-vs-sequential story, so it gets its own artifact instead. *)
let all scale =
  [ lu scale; sor scale; water_nsq scale; water_spatial scale; raytrace scale ]

(* Single source of truth for every registered application, in CLI order:
   [find], [names] — and through them both CLIs' usage text, the identity
   golden, and the soak sweeps — all derive from this list, so a new app
   appears everywhere by adding one row (the same drift
   [Config.protocol_strings] eliminated for protocols). *)
let builders =
  [
    ("lu", lu);
    ("sor", sor);
    ("sor-zero", sor_zero);
    ("water-nsquared", water_nsq);
    ("water-spatial", water_spatial);
    ("raytrace", raytrace);
    ("kvstore", kvstore);
  ]

let find name scale =
  match List.assoc_opt (String.lowercase_ascii name) builders with
  | Some b -> Some (b scale)
  | None -> None

let names = List.map fst builders
