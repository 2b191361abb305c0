type ctx = {
  sys : System.t;
  node : System.node_state;
  shift : int;
  mask : int;
  access_cost : float;
}

let make_ctx sys (node : System.node_state) =
  let layout = sys.System.layout in
  let page_words = Mem.Layout.page_words layout in
  let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
  {
    sys;
    node;
    shift = log2 page_words 0;
    mask = page_words - 1;
    access_cost = (System.costs sys).Machine.Costs.mem_access;
  }

let pid ctx = ctx.node.System.id

let nprocs ctx = System.nprocs ctx.sys

let page_words ctx = ctx.mask + 1

let malloc ctx ?name ?home ?scratch words =
  System.malloc ctx.sys ctx.node ?name ?home_map:home ?scratch words

let root ctx name = System.root ctx.sys name

(* The word-access path: the simulator's innermost loop, once per
   simulated load/store. A hit is one table lookup and one protection test;
   the charge bumps all-float records, the page word lives in a Bigarray
   (direct load/store, no boxing), and the offset is valid by construction
   ([addr land mask] < page_words, the length of every page buffer).

   Everything else is on the miss path: the shared-space bounds check (an
   entry exists only for an allocated page, so a hit needs none) and the
   fault loop. Faults re-check protection and retry, like a restarted
   instruction: an interval can end (write-protecting the page again)
   between the fault handler finishing and this process resuming. *)

let[@inline never] check_addr ctx fn addr =
  let limit = ((ctx.sys.System.next_addr + ctx.mask) lsr ctx.shift) lsl ctx.shift in
  if addr < 0 || addr >= limit then
    invalid_arg
      (Printf.sprintf "Api.%s: address %d is outside the allocated shared space [0, %d)" fn
         addr limit)

let[@inline never] read_miss ctx fn addr =
  check_addr ctx fn addr;
  let page = addr lsr ctx.shift in
  let entry = Mem.Page_table.ensure ctx.node.System.pt page in
  while entry.Mem.Page_table.prot = Mem.Page_table.No_access do
    Effect.perform (System.Read_fault_eff page)
  done;
  entry

let[@inline never] write_miss ctx fn addr =
  check_addr ctx fn addr;
  let page = addr lsr ctx.shift in
  let entry = Mem.Page_table.ensure ctx.node.System.pt page in
  while entry.Mem.Page_table.prot <> Mem.Page_table.Read_write do
    Effect.perform (System.Write_fault_eff page)
  done;
  entry

let[@inline] readable ctx fn addr =
  match Mem.Page_table.find ctx.node.System.pt (addr lsr ctx.shift) with
  | Some e when e.Mem.Page_table.prot <> Mem.Page_table.No_access -> e
  | _ -> read_miss ctx fn addr

let[@inline] writable ctx fn addr =
  match Mem.Page_table.find ctx.node.System.pt (addr lsr ctx.shift) with
  | Some e when e.Mem.Page_table.prot = Mem.Page_table.Read_write -> e
  | _ -> write_miss ctx fn addr

(* The one allocation left on this path is boxing [read]'s float result
   (a function that is not inlined returns its float boxed, and without
   flambda a call from another module is not inlined). The block
   accessors below move words with no boxing at all. *)
let read ctx addr =
  System.charge_compute ctx.node ctx.access_cost;
  let entry = readable ctx "read" addr in
  Mem.Words.unsafe_get (Mem.Page_table.data_exn entry) (addr land ctx.mask)

let write ctx addr value =
  System.charge_compute ctx.node ctx.access_cost;
  let entry = writable ctx "write" addr in
  let off = addr land ctx.mask in
  Mem.Words.unsafe_set (Mem.Page_table.data_exn entry) off value;
  (* [Page_table.mark_written], inline: the interval's diff scans only the
     written range. *)
  if off < entry.Mem.Page_table.lo then entry.Mem.Page_table.lo <- off;
  if off > entry.Mem.Page_table.hi then entry.Mem.Page_table.hi <- off;
  (* AURC automatic update: the store is snooped off the bus and performed
     on the home's master copy with no software overhead (paper 2.2). *)
  match entry.Mem.Page_table.mirror with
  | None -> ()
  | Some home_copy ->
      Mem.Words.unsafe_set home_copy off value;
      entry.Mem.Page_table.mirror_pending <- entry.Mem.Page_table.mirror_pending + 1

(* Block accessors: the same accesses as the per-word loop over
   [addr, addr + len), one page run at a time. A run charges its first
   word, looks the page up (faulting as [read]/[write] would), then charges
   the other [n - 1] words and moves all [n] unboxed; a written run widens
   the page's written range once. No event can run between two hits, so
   this is observably the per-word loop: the same charges in the same
   order, the same faults at the same clock. [len] is checked against the
   buffer before anything moves. *)

let check_len fn len buf =
  if len < 0 || len > Array.length buf then
    invalid_arg
      (Printf.sprintf "Api.%s: len %d outside the buffer's [0, %d]" fn len (Array.length buf))

(* Words in the run starting at page offset [off], with [left] to go. *)
let[@inline] run_length ctx ~off ~left =
  let room = ctx.mask + 1 - off in
  if left < room then left else room

let read_block ctx ~addr ~len (buf : float array) =
  check_len "read_block" len buf;
  let node = ctx.node and cost = ctx.access_cost in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land ctx.mask in
    let n = run_length ctx ~off ~left:(len - !pos) in
    System.charge_compute node cost;
    let data = Mem.Page_table.data_exn (readable ctx "read_block" a) in
    System.charge_compute_n node cost (n - 1);
    let base = !pos - off in
    for o = off to off + n - 1 do
      Array.unsafe_set buf (base + o) (Mem.Words.unsafe_get data o)
    done;
    pos := !pos + n
  done

let write_block ctx ~addr ~len (buf : float array) =
  check_len "write_block" len buf;
  let node = ctx.node and cost = ctx.access_cost in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land ctx.mask in
    let n = run_length ctx ~off ~left:(len - !pos) in
    System.charge_compute node cost;
    let entry = writable ctx "write_block" a in
    System.charge_compute_n node cost (n - 1);
    let base = !pos - off in
    let data = Mem.Page_table.data_exn entry in
    for o = off to off + n - 1 do
      Mem.Words.unsafe_set data o (Array.unsafe_get buf (base + o))
    done;
    Mem.Page_table.mark_written entry ~lo:off ~hi:(off + n - 1);
    (match entry.Mem.Page_table.mirror with
    | None -> ()
    | Some home_copy ->
        for o = off to off + n - 1 do
          Mem.Words.unsafe_set home_copy o (Array.unsafe_get buf (base + o))
        done;
        entry.Mem.Page_table.mirror_pending <- entry.Mem.Page_table.mirror_pending + n);
    pos := !pos + n
  done

let read_int ctx addr = int_of_float (read ctx addr)

let write_int ctx addr value = write ctx addr (float_of_int value)

let lock _ctx id =
  if id < 0 then invalid_arg "lock: negative id";
  Effect.perform (System.Lock_eff id)

let unlock ctx id = Sync.release ctx.sys ctx.node id

let barrier _ctx = Effect.perform System.Barrier_eff

let compute ctx us =
  if us < 0. then invalid_arg "compute: negative duration";
  System.charge_compute ctx.node us

let start_timing ctx =
  let node = ctx.node in
  node.System.start_clock <- node.System.mach.Machine.Node.ck.Machine.Node.clock;
  node.System.start_breakdown <- Stats.breakdown_copy node.System.stats.Stats.b;
  node.System.start_counters <- Stats.counters_copy node.System.stats.Stats.c;
  Mem.Accounting.reset_peak node.System.stats.Stats.proto_mem

let now ctx = ctx.node.System.mach.Machine.Node.ck.Machine.Node.clock

let idle_until ctx at =
  let t = now ctx in
  if at > t then System.charge_idle ctx.node (at -. t)

let record_op ctx kind ~issued_at =
  let latency = now ctx -. issued_at in
  System.record_op ctx.sys ctx.node kind ~latency:(max 0. latency)
