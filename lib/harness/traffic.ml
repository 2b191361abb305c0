type params = {
  ops : int;
  rate : float;
  keys : int;
  theta : float;
  write_ratio : float;
  txn_ratio : float;
  seed : int;
}

type op = Get of int | Put of int | Txn of int * int

let validate p =
  if p.ops < 1 then invalid_arg "Traffic: ops must be >= 1";
  if not (p.rate > 0.) then invalid_arg "Traffic: rate must be > 0";
  if p.keys < 1 then invalid_arg "Traffic: keys must be >= 1";
  if p.theta < 0. || p.theta >= 1. then
    invalid_arg "Traffic: theta must be in [0, 1)";
  if p.write_ratio < 0. || p.write_ratio > 1. then
    invalid_arg "Traffic: write-ratio must be in [0, 1]";
  if p.txn_ratio < 0. || p.txn_ratio > 1. then
    invalid_arg "Traffic: txn-ratio must be in [0, 1]"

let arrival_us p j = float_of_int j *. 1_000_000. /. p.rate

(* Per-operation generator: [j * odd-constant + seed] is injective in [j]
   for a fixed seed, and splitmix64's output mixer decorrelates adjacent
   states, so each op gets an independent-looking stream without having
   to replay a single global one. *)
let op_rng p j = Sim.Rng.create ~seed:(p.seed + (j * 0x9E3779B9))

let op_at p z j =
  let rng = op_rng p j in
  let kind = Sim.Rng.float rng 1.0 in
  if kind < p.txn_ratio then begin
    let src = Sim.Rng.zipf rng z in
    let dst = Sim.Rng.zipf rng z in
    if dst <> src then Txn (src, dst)
    else if p.keys = 1 then Txn (src, src)
    else Txn (src, (src + 1) mod p.keys)
  end
  else
    let key = Sim.Rng.zipf rng z in
    if Sim.Rng.float rng 1.0 < p.write_ratio then Put key else Get key

let iter_node p ~node ~nodes f =
  validate p;
  if node < 0 || node >= nodes then invalid_arg "Traffic.iter_node: node";
  let z = Sim.Rng.zipf_create ~n:p.keys ~theta:p.theta in
  let j = ref node in
  while !j < p.ops do
    f ~index:!j ~at_us:(arrival_us p !j) (op_at p z !j);
    j := !j + nodes
  done
