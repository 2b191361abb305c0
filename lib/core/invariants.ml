(* Global coherence invariants, checked at barrier completion when
   [Config.paranoid] is set (testing aid; not part of the simulated cost
   model).

   At a barrier every write notice has been collected by the manager and
   every process is suspended, so the memory-consistency obligations are
   globally decidable:

   - A node's copy is "current" when it has no unapplied notices (homeless),
     or its required flush level is met at the home (home-based), or simply
     always (eager RC, where updates push at once).
   - All current copies of a page must be bitwise identical: any difference
     is a lost update, a misordered diff application, or a directory bug —
     exactly the failure modes of the bugs recorded in DESIGN.md 7. *)

open System

exception Violation of string

(* Side-effect-free by design: the final-memory digest in [Runtime.collect]
   calls this outside any synchronization point, so it must not create home
   records or page-table entries (which would perturb memory accounting and
   break report byte-identity). A home record that was never created has a
   zero flush vector, which is exactly what an absent entry means. *)
let page_currents sys page =
  Array.fold_left
    (fun acc (node : node_state) ->
      if not (is_alive sys node.id) then
        (* A crash-stopped node's copies are unreachable and may be stale
           mid-write: they are outside the coherence obligation (and the
           final-memory digest, which must match the fault-free run's). *)
        acc
      else if page >= Array.length node.pinfo then acc
      else
        match node.pinfo.(page) with
        | None -> acc
        | Some pi -> (
            match Mem.Page_table.find node.pt page with
            | None -> acc
            | Some entry -> (
                match entry.Mem.Page_table.data with
                | None -> acc
                | Some data ->
                    let current =
                      if eager_rc sys then true
                      else if home_based sys then
                        (* current iff every required flush has landed at home *)
                        let home = sys.nodes.(home_of sys page) in
                        let flush_met =
                          match Hashtbl.find_opt home.homes page with
                          | Some hp -> Proto.Vclock.leq pi.needed hp.hp_flush
                          | None -> Proto.Vclock.is_initial pi.needed
                        in
                        entry.Mem.Page_table.prot <> Mem.Page_table.No_access && flush_met
                      else
                        entry.Mem.Page_table.prot <> Mem.Page_table.No_access
                        && Faults.still_missing pi = []
                    in
                    (* a page being written right now may legitimately lead *)
                    if current && not entry.Mem.Page_table.dirty then (node.id, data) :: acc
                    else acc)))
    [] sys.nodes

let check_page sys page =
  match page_currents sys page with
  | [] | [ _ ] -> ()
  | (ref_node, ref_data) :: rest ->
      List.iter
        (fun (node, data) ->
          Mem.Words.iteri
            (fun off v ->
              let r = Mem.Words.get ref_data off in
              if Int64.bits_of_float v <> Int64.bits_of_float r then
                raise
                  (Violation
                     (Printf.sprintf
                        "page %d word %d: node %d has %.17g, node %d has %.17g" page off node v
                        ref_node r)))
            data)
        rest

(* Page-buffer ownership. Every live page buffer sits in exactly one slot:
   a node's [data] or [twin], or a backup's warm copy [rp_data] (dead
   nodes included), and none is on the pool's free list. The one alias
   allowed is an AURC [mirror], which points at its home's master copy:
   another node's [data] of the same page (the previous home's, while a
   migration's transfer is still parked).

   Aliasing is found in O(slots) by stamping: save word 0 of every slot's
   buffer, write each slot's index there, and read it back. A slot that
   reads another index shares its buffer with that (later) slot. Every
   save happens before any stamp, so restoring the saved words in any
   order leaves memory as it was. *)
type slot = Data of int * int | Twin of int * int | Warm of int * int | Free

let describe = function
  | Data (node, page) -> Printf.sprintf "node %d's copy of page %d" node page
  | Twin (node, page) -> Printf.sprintf "node %d's twin of page %d" node page
  | Warm (node, page) -> Printf.sprintf "node %d's warm copy of page %d" node page
  | Free -> "the pool's free list"

let check_ownership sys =
  let acc = ref [] in
  let add slot = function Some b -> acc := (slot, b) :: !acc | None -> () in
  let mirrors = ref [] in
  Array.iter
    (fun (node : node_state) ->
      Mem.Page_table.iter node.pt (fun e ->
          let page = e.Mem.Page_table.page in
          add (Data (node.id, page)) e.Mem.Page_table.data;
          add (Twin (node.id, page)) e.Mem.Page_table.twin;
          match e.Mem.Page_table.mirror with
          | Some m -> mirrors := (node.id, page, m) :: !mirrors
          | None -> ());
      Hashtbl.iter (fun page rp -> add (Warm (node.id, page)) rp.rp_data) node.repl)
    sys.nodes;
  Mem.Words.Pool.iter_free (fun b -> add Free (Some b)) sys.pool;
  let slots = Array.of_list !acc in
  let saved = Array.map (fun (_, b) -> Mem.Words.get b 0) slots in
  Array.iteri (fun i (_, b) -> Mem.Words.set b 0 (float_of_int i)) slots;
  (* Index of the slot whose stamp [b] carries, if [b] is a slot's buffer. *)
  let owner b =
    let v = Mem.Words.get b 0 in
    let i = int_of_float v in
    if Float.is_integer v && i >= 0 && i < Array.length slots && snd slots.(i) == b then
      Some i
    else None
  in
  let problem = ref None in
  Array.iteri
    (fun i (slot, b) ->
      match owner b with
      | Some j when j <> i && !problem = None ->
          problem :=
            Some
              (Printf.sprintf "%s and %s share one page buffer" (describe slot)
                 (describe (fst slots.(j))))
      | _ -> ())
    slots;
  List.iter
    (fun (node, page, m) ->
      match owner m with
      | Some j when !problem = None -> (
          match fst slots.(j) with
          | Data (home, p) when home <> node && p = page -> ()
          | other ->
              problem :=
                Some
                  (Printf.sprintf "node %d's mirror of page %d aliases %s" node page
                     (describe other)))
      | _ -> ())
    !mirrors;
  Array.iteri (fun i (_, b) -> Mem.Words.set b 0 saved.(i)) slots;
  Option.iter (fun msg -> raise (Violation msg)) !problem

(* Invoked by the barrier manager at completion (before releases, while
   every process is suspended). *)
let check sys =
  if sys.cfg.Config.paranoid then begin
    let npages = Mem.Layout.pages_for sys.layout sys.next_addr in
    for page = 0 to npages - 1 do
      check_page sys page
    done;
    check_ownership sys
  end
