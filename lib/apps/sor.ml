(* Red-black successive over-relaxation (the TreadMarks SOR kernel).

   The grid is partitioned into bands of rows; communication happens only
   across band boundaries, synchronized by barriers — the paper's extreme
   coarse-grained, single-writer case. [zero_interior] reproduces the §4.8
   experiment: all interior elements start at zero so no diffs are produced
   for many iterations, the workload most favourable to LRC. *)

type params = {
  rows : int;
  cols : int;
  iters : int;
  zero_interior : bool;
  flop_us : float;
  seed : int;
}

let default =
  { rows = 256; cols = 256; iters = 10; zero_interior = false; flop_us = 0.03; seed = 11 }

let name = "SOR"

let init_value p i j =
  let idx = (i * p.cols) + j in
  let boundary = i = 0 || j = 0 || i = p.rows - 1 || j = p.cols - 1 in
  if p.zero_interior then if boundary then 1.0 else 0.0
  else App_util.det_float ~seed:p.seed idx

(* One red-black iteration on a plain array (reference and kernel share the
   update rule). Colors have no intra-phase dependencies, so the parallel
   execution is bit-identical to this sequential one. *)
let update_cell a cols i j =
  let idx = (i * cols) + j in
  a.(idx) <- 0.25 *. (a.(idx - cols) +. a.(idx + cols) +. a.(idx - 1) +. a.(idx + 1))

let reference p =
  let a = Array.init (p.rows * p.cols) (fun idx -> init_value p (idx / p.cols) (idx mod p.cols)) in
  for _ = 1 to p.iters do
    for color = 0 to 1 do
      for i = 1 to p.rows - 2 do
        for j = 1 to p.cols - 2 do
          if (i + j) land 1 = color then update_cell a p.cols i j
        done
      done
    done
  done;
  a

let flops_per_cell = 4.

let body ?(verify = true) p ctx =
  let me = Svm.Api.pid ctx and np = Svm.Api.nprocs ctx in
  let reference = lazy (reference p) in
  if me = 0 then begin
    let rows_per_page = max 1 (Svm.Api.page_words ctx / p.cols) in
    let home page = App_util.owner_of ~n:p.rows ~nparts:np (min (p.rows - 1) (page * rows_per_page)) in
    let a = Svm.Api.malloc ctx ~name:"sor.a" ~home (p.rows * p.cols) in
    let row = Array.make p.cols 0. in
    for i = 0 to p.rows - 1 do
      for j = 0 to p.cols - 1 do
        row.(j) <- init_value p i j
      done;
      Svm.Api.write_block ctx ~addr:(a + (i * p.cols)) ~len:p.cols row
    done
  end;
  Svm.Api.barrier ctx;
  Svm.Api.start_timing ctx;
  let a = Svm.Api.root ctx "sor.a" in
  let lo, hi = App_util.chunk ~n:p.rows ~nparts:np me in
  let lo = max lo 1 and hi = min hi (p.rows - 1) in
  for _ = 1 to p.iters do
    for color = 0 to 1 do
      for i = lo to hi - 1 do
        let row = a + (i * p.cols) in
        for j = 1 to p.cols - 2 do
          if (i + j) land 1 = color then begin
            let v =
              0.25
              *. (Svm.Api.read ctx (row + j - p.cols)
                 +. Svm.Api.read ctx (row + j + p.cols)
                 +. Svm.Api.read ctx (row + j - 1)
                 +. Svm.Api.read ctx (row + j + 1))
            in
            Svm.Api.write ctx (row + j) v;
            Svm.Api.compute ctx (flops_per_cell *. p.flop_us)
          end
        done
      done;
      Svm.Api.barrier ctx
    done
  done;
  if verify && me = 0 then begin
    let expected = Lazy.force reference in
    let got = Array.make (p.rows * p.cols) 0. in
    Svm.Api.read_block ctx ~addr:a ~len:(p.rows * p.cols) got;
    Array.iteri
      (fun idx v -> App_util.check_close ~what:"sor.a" ~tol:1e-12 ~index:idx expected.(idx) v)
      got
  end;
  Svm.Api.barrier ctx
