type protection = No_access | Read_only | Read_write

type entry = {
  page : int;
  mutable data : Words.t option;
  mutable prot : protection;
  mutable twin : Words.t option;
  mutable dirty : bool;
  mutable mirror : Words.t option;
  mutable mirror_pending : int;
  mutable lo : int;
  mutable hi : int;
}

type t = {
  layout : Layout.t;
  pool : Words.Pool.t;
  paranoid : bool;
  node : int;
  mutable entries : entry option array;
  mutable npages : int;
}

let create ?(paranoid = false) ?(node = 0) ~pool layout =
  if Words.Pool.page_words pool <> Layout.page_words layout then
    invalid_arg
      (Printf.sprintf "Page_table.create: %d-word pool for %d-word pages"
         (Words.Pool.page_words pool) (Layout.page_words layout));
  { layout; pool; paranoid; node; entries = [||]; npages = 0 }

let layout t = t.layout

let npages t = t.npages

let grow t page =
  let capacity = Array.length t.entries in
  if page >= capacity then begin
    let capacity' = max 64 (max (2 * capacity) (page + 1)) in
    let entries' = Array.make capacity' None in
    Array.blit t.entries 0 entries' 0 capacity;
    t.entries <- entries'
  end;
  if page >= t.npages then t.npages <- page + 1

let ensure t page =
  grow t page;
  match t.entries.(page) with
  | Some e -> e
  | None ->
      let e =
        {
          page;
          data = None;
          prot = No_access;
          twin = None;
          dirty = false;
          mirror = None;
          mirror_pending = 0;
          lo = Layout.page_words t.layout;
          hi = -1;
        }
      in
      t.entries.(page) <- Some e;
      e

let find t page = if page < 0 || page >= t.npages then None else t.entries.(page)

let entry t page =
  if page < 0 || page >= t.npages then
    invalid_arg (Printf.sprintf "Page_table.entry: page %d out of range" page)
  else
    match t.entries.(page) with
    | Some e -> e
    | None -> invalid_arg (Printf.sprintf "Page_table.entry: page %d never touched" page)

let data_exn e =
  match e.data with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Page_table.data_exn: page %d not cached" e.page)

let attach_copy t e =
  let data = Words.Pool.take_zero t.pool in
  e.data <- Some data;
  data

let mark_written e ~lo ~hi =
  if lo < e.lo then e.lo <- lo;
  if hi > e.hi then e.hi <- hi

let make_twin t e =
  e.twin <- Some (Words.Pool.take_copy t.pool (data_exn e));
  e.lo <- Layout.page_words t.layout;
  e.hi <- -1

let drop_twin t e =
  match e.twin with
  | Some twin ->
      e.twin <- None;
      Words.Pool.release t.pool twin
  | None -> ()

let drop_copy t e =
  match e.data with
  | Some data ->
      e.data <- None;
      Words.Pool.release t.pool data
  | None -> ()

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Paranoid runs scan the whole page as well: a data mutation that skipped
   the written range (or a twin it failed to mirror) shows up here. *)
let check_range t e ~twin ~current d =
  let full = Diff.create ~page:e.page ~twin ~current in
  let agree =
    full.Diff.offsets = d.Diff.offsets
    && Array.for_all2 same_bits full.Diff.values d.Diff.values
  in
  if not agree then
    failwith
      (Printf.sprintf
         "Page_table.diff: node %d page %d: ranged diff over [%d, %d] has %d words, the \
          full-page scan %d"
         t.node e.page e.lo e.hi (Diff.word_count d) (Diff.word_count full))

let diff t e =
  match e.twin with
  | None -> invalid_arg (Printf.sprintf "Page_table.diff: page %d has no twin" e.page)
  | Some twin ->
      let current = data_exn e in
      let d = Diff.create_range ~page:e.page ~twin ~current ~lo:e.lo ~hi:e.hi in
      if t.paranoid then check_range t e ~twin ~current d;
      d

let install_copy t e data ~write_through ~dirty_without_twin =
  let old = e.data in
  (match (e.dirty, e.twin) with
  | true, Some twin ->
      (* Diff the uncommitted writes out of the old copy, rebase the twin
         on the new one, and re-apply them on top. The written range stays:
         outside it, data and twin are both the new copy. *)
      let own = diff t e in
      Words.blit ~src:data ~dst:twin;
      Diff.apply own data
  | true, None when write_through -> ()
  | true, None -> invalid_arg dirty_without_twin
  | false, _ -> drop_twin t e);
  e.data <- Some data;
  match old with Some d -> Words.Pool.release t.pool d | None -> ()

let iter t f =
  for page = 0 to t.npages - 1 do
    match t.entries.(page) with Some e -> f e | None -> ()
  done

let cached_pages t =
  let acc = ref [] in
  iter t (fun e -> if e.data <> None then acc := e :: !acc);
  List.rev !acc
