(* Unit and property tests for the memory substrate: layout, diffs, the
   page-buffer pool, page tables and accounting. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Layout *)

let test_layout_basics () =
  let l = Mem.Layout.create ~page_words:1024 in
  check Alcotest.int "page words" 1024 (Mem.Layout.page_words l);
  check Alcotest.int "page bytes" 8192 (Mem.Layout.page_bytes l);
  check Alcotest.int "page of 0" 0 (Mem.Layout.page_of_addr l 0);
  check Alcotest.int "page of 1023" 0 (Mem.Layout.page_of_addr l 1023);
  check Alcotest.int "page of 1024" 1 (Mem.Layout.page_of_addr l 1024);
  check Alcotest.int "offset" 5 (Mem.Layout.offset_of_addr l 1029);
  check Alcotest.int "base of page 3" 3072 (Mem.Layout.base_of_page l 3)

let test_layout_pages_for () =
  let l = Mem.Layout.create ~page_words:256 in
  check Alcotest.int "exact fit" 1 (Mem.Layout.pages_for l 256);
  check Alcotest.int "one more" 2 (Mem.Layout.pages_for l 257);
  check Alcotest.int "zero" 0 (Mem.Layout.pages_for l 0)

let test_layout_rejects_non_power () =
  Alcotest.check_raises "non power of two" (Invalid_argument
    "Layout.create: page_words must be a positive power of two")
    (fun () -> ignore (Mem.Layout.create ~page_words:1000))

let prop_layout_roundtrip =
  QCheck.Test.make ~name:"layout addr = base + offset" ~count:300
    QCheck.(pair (int_range 0 7) (int_range 0 1_000_000))
    (fun (shift, addr) ->
      let page_words = 64 lsl shift in
      let l = Mem.Layout.create ~page_words in
      let page = Mem.Layout.page_of_addr l addr in
      let off = Mem.Layout.offset_of_addr l addr in
      Mem.Layout.base_of_page l page + off = addr && off >= 0 && off < page_words)

(* ------------------------------------------------------------------ *)
(* Diff *)

let mk_page f = Mem.Words.of_array (Array.init 64 f)

let test_diff_roundtrip () =
  let twin = mk_page float_of_int in
  let current = Mem.Words.copy twin in
  Mem.Words.set current 3 99.;
  Mem.Words.set current 17 (-1.);
  let d = Mem.Diff.create ~page:0 ~twin ~current in
  check Alcotest.int "two words changed" 2 (Mem.Diff.word_count d);
  let target = Mem.Words.copy twin in
  Mem.Diff.apply d target;
  check Alcotest.bool "apply reproduces current" true
    (Mem.Words.to_array target = Mem.Words.to_array current)

let test_diff_empty () =
  let twin = mk_page float_of_int in
  let d = Mem.Diff.create ~page:0 ~twin ~current:(Mem.Words.copy twin) in
  check Alcotest.bool "empty" true (Mem.Diff.is_empty d);
  check Alcotest.int "size is header only" 16 (Mem.Diff.size_bytes d)

let test_diff_bitwise_semantics () =
  (* Writing the same bit pattern is not a change; 0.0 vs -0.0 is. *)
  let twin = Mem.Words.make 4 in
  let current = Mem.Words.copy twin in
  Mem.Words.set current 0 0.0;
  Mem.Words.set current 1 (-0.0);
  let d = Mem.Diff.create ~page:0 ~twin ~current in
  check Alcotest.int "only -0.0 differs" 1 (Mem.Diff.word_count d)

let test_diff_length_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Diff.create: twin and current differ in length") (fun () ->
      ignore (Mem.Diff.create ~page:0 ~twin:(Mem.Words.make 3) ~current:(Mem.Words.make 4)))

let test_diff_merge_pages_mismatch () =
  let twin = mk_page float_of_int in
  let d0 = Mem.Diff.create ~page:0 ~twin ~current:twin in
  let d1 = Mem.Diff.create ~page:1 ~twin ~current:twin in
  Alcotest.check_raises "different pages" (Invalid_argument "Diff.merge: different pages")
    (fun () -> ignore (Mem.Diff.merge d0 d1))

let diff_gen =
  (* random sparse modification of a 64-word page *)
  QCheck.Gen.(
    list_size (int_bound 20) (pair (int_bound 63) (float_range (-100.) 100.)))

let apply_writes base writes =
  let c = Mem.Words.copy base in
  List.iter (fun (i, v) -> Mem.Words.set c i v) writes;
  c

let prop_diff_apply_equals_writes =
  QCheck.Test.make ~name:"diff apply == replaying the writes" ~count:300
    (QCheck.make diff_gen) (fun writes ->
      let twin = mk_page float_of_int in
      let current = apply_writes twin writes in
      let d = Mem.Diff.create ~page:0 ~twin ~current in
      let target = Mem.Words.copy twin in
      Mem.Diff.apply d target;
      Mem.Words.to_array target = Mem.Words.to_array current)

let prop_diff_merge_equivalent =
  QCheck.Test.make ~name:"merge a b == apply a then b" ~count:300
    (QCheck.make (QCheck.Gen.pair diff_gen diff_gen)) (fun (w1, w2) ->
      let base = mk_page float_of_int in
      let c1 = apply_writes base w1 in
      let d1 = Mem.Diff.create ~page:0 ~twin:base ~current:c1 in
      let c2 = apply_writes c1 w2 in
      let d2 = Mem.Diff.create ~page:0 ~twin:c1 ~current:c2 in
      let merged = Mem.Diff.merge d1 d2 in
      let via_merge = Mem.Words.copy base in
      Mem.Diff.apply merged via_merge;
      let via_seq = Mem.Words.copy base in
      Mem.Diff.apply d1 via_seq;
      Mem.Diff.apply d2 via_seq;
      Mem.Words.to_array via_merge = Mem.Words.to_array via_seq)

let prop_diff_offsets_sorted =
  QCheck.Test.make ~name:"diff offsets strictly increasing" ~count:300
    (QCheck.make diff_gen) (fun writes ->
      let twin = mk_page float_of_int in
      let current = apply_writes twin writes in
      let d = Mem.Diff.create ~page:0 ~twin ~current in
      let offsets = Array.to_list d.Mem.Diff.offsets in
      List.sort_uniq compare offsets = offsets)

(* ------------------------------------------------------------------ *)
(* Old-vs-new diff equivalence.

   The Bigarray rewrite must be observationally identical to the original
   float-array implementation. [Ref] below *is* that implementation
   (boxed (offset, value) pairs, Int64 bit comparison, list-building
   create, two-pointer merge), preserved as an executable specification;
   the properties drive both over pages that include the nasty float
   cases — +0.0 / -0.0, NaN (bit-compared), infinities — and require the
   same entries, the same wire size and the same merge-wins semantics. *)

module Ref = struct
  type t = { page : int; words : (int * float) array }

  let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

  let create ~page ~twin ~current =
    let changed = ref [] in
    for i = Array.length current - 1 downto 0 do
      if not (same_bits twin.(i) current.(i)) then changed := (i, current.(i)) :: !changed
    done;
    { page; words = Array.of_list !changed }

  let apply t data = Array.iter (fun (o, v) -> data.(o) <- v) t.words

  let size_bytes t = 16 + (12 * Array.length t.words)

  let merge older newer =
    let na = Array.length older.words and nb = Array.length newer.words in
    let acc = ref [] in
    let i = ref 0 and j = ref 0 in
    while !i < na || !j < nb do
      if !i >= na then begin
        acc := newer.words.(!j) :: !acc;
        incr j
      end
      else if !j >= nb then begin
        acc := older.words.(!i) :: !acc;
        incr i
      end
      else
        let oa, _ = older.words.(!i) and ob, _ = newer.words.(!j) in
        if oa < ob then begin
          acc := older.words.(!i) :: !acc;
          incr i
        end
        else if ob < oa then begin
          acc := newer.words.(!j) :: !acc;
          incr j
        end
        else begin
          acc := newer.words.(!j) :: !acc;
          incr i;
          incr j
        end
    done;
    { page = older.page; words = Array.of_list (List.rev !acc) }
end

(* Entries as (offset, bits) lists: NaN-safe structural comparison. *)
let entries_new d =
  let acc = ref [] in
  Mem.Diff.iter (fun o v -> acc := (o, Int64.bits_of_float v) :: !acc) d;
  List.rev !acc

let entries_ref (d : Ref.t) =
  Array.to_list (Array.map (fun (o, v) -> (o, Int64.bits_of_float v)) d.Ref.words)

(* Word values stressing bit-equality: zeros of both signs, NaN,
   infinities, plus ordinary magnitudes. *)
let word_gen =
  QCheck.Gen.(
    frequency
      [
        (2, oneofl [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 1.0 ]);
        (5, float_range (-100.) 100.);
      ])

let page_gen n = QCheck.Gen.(array_size (return n) word_gen)

let pair_gen n = QCheck.Gen.pair (page_gen n) (page_gen n)

let prop_diff_matches_reference =
  QCheck.Test.make ~name:"bigarray diff == array-backed reference" ~count:500
    (QCheck.make (pair_gen 32)) (fun (a, b) ->
      let d_new = Mem.Diff.create ~page:7 ~twin:(Mem.Words.of_array a) ~current:(Mem.Words.of_array b) in
      let d_ref = Ref.create ~page:7 ~twin:a ~current:b in
      entries_new d_new = entries_ref d_ref
      && Mem.Diff.size_bytes d_new = Ref.size_bytes d_ref
      &&
      (* applying both to a third page gives bit-identical results *)
      let base = Array.map (fun v -> v +. 0.5) a in
      let t_new = Mem.Words.of_array base in
      Mem.Diff.apply d_new t_new;
      let t_ref = Array.copy base in
      Ref.apply d_ref t_ref;
      Array.to_list (Array.map Int64.bits_of_float (Mem.Words.to_array t_new))
      = Array.to_list (Array.map Int64.bits_of_float t_ref))

let prop_diff_merge_matches_reference =
  QCheck.Test.make ~name:"bigarray merge == array-backed reference merge" ~count:500
    (QCheck.make QCheck.Gen.(triple (page_gen 32) (page_gen 32) (page_gen 32)))
    (fun (base, c1, c2) ->
      let d1_new = Mem.Diff.create ~page:3 ~twin:(Mem.Words.of_array base) ~current:(Mem.Words.of_array c1) in
      let d2_new = Mem.Diff.create ~page:3 ~twin:(Mem.Words.of_array c1) ~current:(Mem.Words.of_array c2) in
      let d1_ref = Ref.create ~page:3 ~twin:base ~current:c1 in
      let d2_ref = Ref.create ~page:3 ~twin:c1 ~current:c2 in
      entries_new (Mem.Diff.merge d1_new d2_new) = entries_ref (Ref.merge d1_ref d2_ref))

(* ------------------------------------------------------------------ *)
(* Page-buffer pool *)

let bits = Int64.bits_of_float

let free_count pool =
  let n = ref 0 in
  Mem.Words.Pool.iter_free (fun _ -> incr n) pool;
  !n

let test_pool_recycles () =
  let pool = Mem.Words.Pool.create 8 in
  let a = Mem.Words.Pool.take_zero pool in
  Mem.Words.Pool.release pool a;
  check Alcotest.int "on the free list" 1 (free_count pool);
  check Alcotest.bool "take_zero reuses it" true (Mem.Words.Pool.take_zero pool == a);
  Mem.Words.Pool.release pool a;
  check Alcotest.bool "take_copy reuses it" true
    (Mem.Words.Pool.take_copy pool (Mem.Words.make 8) == a);
  check Alcotest.int "free list drained" 0 (free_count pool)

let test_pool_take_zero_clears () =
  let pool = Mem.Words.Pool.create 8 in
  let a = Mem.Words.Pool.take_zero pool in
  Mem.Words.fill a (-3.5);
  Mem.Words.set a 7 Float.nan;
  Mem.Words.Pool.release pool a;
  let b = Mem.Words.Pool.take_zero pool in
  check Alcotest.bool "recycled" true (a == b);
  Mem.Words.iter (fun v -> check Alcotest.int64 "zero bits" 0L (bits v)) b

let test_pool_take_copy_bit_exact () =
  let pool = Mem.Words.Pool.create 8 in
  let src =
    Mem.Words.of_array
      [|
        -0.0;
        0.0;
        Int64.float_of_bits 0x7ff8_0000_dead_beefL;
        Int64.float_of_bits 0xfff8_0000_0000_0001L;
        Float.infinity;
        Float.neg_infinity;
        Float.min_float;
        1.5;
      |]
  in
  let expect dst =
    for i = 0 to 7 do
      check Alcotest.int64 (Printf.sprintf "word %d" i) (bits (Mem.Words.get src i))
        (bits (Mem.Words.get dst i))
    done
  in
  let fresh = Mem.Words.Pool.take_copy pool src in
  expect fresh;
  Mem.Words.fill fresh 9.;
  Mem.Words.Pool.release pool fresh;
  let recycled = Mem.Words.Pool.take_copy pool src in
  check Alcotest.bool "recycled" true (fresh == recycled);
  expect recycled

let test_pool_rejects_wrong_length () =
  let pool = Mem.Words.Pool.create 8 in
  Alcotest.check_raises "short buffer"
    (Invalid_argument "Words.Pool.release: buffer of 4 words in a pool of 8-word pages")
    (fun () -> Mem.Words.Pool.release pool (Mem.Words.make 4));
  check Alcotest.int "nothing released" 0 (free_count pool)

let test_pool_poison () =
  let pool = Mem.Words.Pool.create ~poison:true 4 in
  let a = Mem.Words.Pool.take_zero pool in
  Mem.Words.Pool.release pool a;
  Mem.Words.iter (fun v -> check Alcotest.bool "poisoned" true (Float.is_nan v)) a

(* ------------------------------------------------------------------ *)
(* Page table *)

let table ?pool page_words =
  let pool = Option.value pool ~default:(Mem.Words.Pool.create page_words) in
  Mem.Page_table.create ~pool (Mem.Layout.create ~page_words)

let test_page_table_ensure () =
  let pt = table 64 in
  let e = Mem.Page_table.ensure pt 5 in
  check Alcotest.int "page id" 5 e.Mem.Page_table.page;
  check Alcotest.bool "uncached" true (e.Mem.Page_table.data = None);
  check Alcotest.bool "same entry" true (e == Mem.Page_table.ensure pt 5);
  check Alcotest.int "npages" 6 (Mem.Page_table.npages pt)

let test_page_table_entry_missing () =
  let pt = table 64 in
  Alcotest.check_raises "never touched"
    (Invalid_argument "Page_table.entry: page 0 out of range") (fun () ->
      ignore (Mem.Page_table.entry pt 0))

let test_page_table_rejects_pool_length () =
  Alcotest.check_raises "pool of another page size"
    (Invalid_argument "Page_table.create: 16-word pool for 8-word pages") (fun () ->
      ignore
        (Mem.Page_table.create ~pool:(Mem.Words.Pool.create 16)
           (Mem.Layout.create ~page_words:8)))

let test_page_table_twin () =
  let pt = table 8 in
  let e = Mem.Page_table.ensure pt 0 in
  let data = Mem.Page_table.attach_copy pt e in
  Mem.Words.set data 0 7.;
  Mem.Page_table.make_twin pt e;
  Mem.Words.set data 0 8.;
  let twin =
    match e.Mem.Page_table.twin with
    | Some t ->
        check (Alcotest.float 0.) "twin keeps old value" 7. (Mem.Words.get t 0);
        t
    | None -> Alcotest.fail "twin missing"
  in
  Mem.Page_table.drop_twin pt e;
  check Alcotest.bool "twin dropped" true (e.Mem.Page_table.twin = None);
  check Alcotest.bool "twin back in the pool" true
    (Mem.Page_table.attach_copy pt (Mem.Page_table.ensure pt 1) == twin)

(* A fetched copy displaces a dirty page: the uncommitted write survives on
   top of it, the twin is rebased in place, and the old copy is recycled. *)
let test_page_table_install_copy () =
  let pool = Mem.Words.Pool.create 8 in
  let pt = table ~pool 8 in
  let e = Mem.Page_table.ensure pt 0 in
  let old = Mem.Page_table.attach_copy pt e in
  Mem.Page_table.make_twin pt e;
  let twin = Option.get e.Mem.Page_table.twin in
  e.Mem.Page_table.dirty <- true;
  Mem.Words.set old 2 5.;
  Mem.Page_table.mark_written e ~lo:2 ~hi:2;
  let fetched = Mem.Words.of_array [| 1.; 1.; 1.; 1.; 1.; 1.; 1.; 1. |] in
  Mem.Page_table.install_copy pt e fetched ~write_through:false ~dirty_without_twin:"x";
  check Alcotest.bool "installed" true (Mem.Page_table.data_exn e == fetched);
  check (Alcotest.float 0.) "own write kept" 5. (Mem.Words.get fetched 2);
  check (Alcotest.float 0.) "fetched word" 1. (Mem.Words.get fetched 3);
  check Alcotest.bool "twin rebased in place" true (Option.get e.Mem.Page_table.twin == twin);
  check (Alcotest.float 0.) "twin is the fetched base" 1. (Mem.Words.get twin 2);
  check Alcotest.int "old copy released" 1 (free_count pool);
  e.Mem.Page_table.dirty <- false;
  Mem.Page_table.install_copy pt e (Mem.Words.make 8) ~write_through:false
    ~dirty_without_twin:"x";
  check Alcotest.bool "clean install drops the twin" true (e.Mem.Page_table.twin = None);
  check Alcotest.int "twin and copy released" 3 (free_count pool);
  e.Mem.Page_table.dirty <- true;
  Alcotest.check_raises "dirty without twin" (Invalid_argument "caller's message") (fun () ->
      Mem.Page_table.install_copy pt e (Mem.Words.make 8) ~write_through:false
        ~dirty_without_twin:"caller's message")

(* The ranged diff of [Page_table.diff] against the full-page
   [Diff.create], over random histories of everything that mutates a
   twinned page: marked word and block stores, twin creation and release,
   remote diffs applied to data and twin alike, and installed copies. The
   written range must also be exactly the words stored since the twin was
   made: a range that only ever grows would still diff correctly, but would
   scan what was not written. *)
type pt_op =
  | Store of int * float
  | Store_block of int * float array
  | Twin  (** make a twin if there is none, else diff and drop it *)
  | Remote of (int * float) list
  | Install of float array

let pt_words = 16

let pt_word_gen =
  QCheck.Gen.(
    frequency
      [ (1, return (Int64.float_of_bits 0x7ff8_0000_dead_beefL)); (6, word_gen) ])

let pt_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun o v -> Store (o, v)) (int_bound (pt_words - 1)) pt_word_gen);
        ( 3,
          map2
            (fun o vs -> Store_block (o, vs))
            (int_bound (pt_words - 1))
            (array_size (int_range 1 6) pt_word_gen) );
        (2, return Twin);
        ( 2,
          map (fun ws -> Remote ws)
            (list_size (int_bound 4) (pair (int_bound (pt_words - 1)) pt_word_gen)) );
        (1, map (fun a -> Install a) (page_gen pt_words));
      ])

let pp_pt_op = function
  | Store (o, v) -> Printf.sprintf "store %d %h" o v
  | Store_block (o, vs) -> Printf.sprintf "block %d (%d words)" o (Array.length vs)
  | Twin -> "twin"
  | Remote ws -> Printf.sprintf "remote (%d words)" (List.length ws)
  | Install _ -> "install"

let prop_ranged_diff_matches_full =
  QCheck.Test.make ~name:"ranged diff == full-page diff" ~count:500
    (QCheck.make ~print:(QCheck.Print.list pp_pt_op)
       QCheck.Gen.(list_size (int_range 1 40) pt_op_gen))
    (fun ops ->
      let pt = table pt_words in
      let e = Mem.Page_table.ensure pt 0 in
      ignore (Mem.Page_table.attach_copy pt e);
      (* The model's written range since the last twin. *)
      let lo = ref pt_words and hi = ref (-1) in
      let mark l h =
        Mem.Page_table.mark_written e ~lo:l ~hi:h;
        lo := min !lo l;
        hi := max !hi h
      in
      let agrees () =
        match e.Mem.Page_table.twin with
        | None -> true
        | Some twin ->
            let current = Mem.Page_table.data_exn e in
            entries_new (Mem.Page_table.diff pt e)
            = entries_new (Mem.Diff.create ~page:0 ~twin ~current)
            &&
            let elo = e.Mem.Page_table.lo and ehi = e.Mem.Page_table.hi in
            (elo > ehi && !lo > !hi) || (elo = !lo && ehi = !hi)
      in
      let step op =
        let data = Mem.Page_table.data_exn e in
        (match op with
        | Store (o, v) ->
            Mem.Words.set data o v;
            mark o o
        | Store_block (o, vs) ->
            let n = min (Array.length vs) (pt_words - o) in
            Array.iteri (fun i v -> if i < n then Mem.Words.set data (o + i) v) vs;
            mark o (o + n - 1)
        | Twin when e.Mem.Page_table.twin = None ->
            Mem.Page_table.make_twin pt e;
            e.Mem.Page_table.dirty <- true;
            lo := pt_words;
            hi := -1
        | Twin ->
            ignore (Mem.Page_table.diff pt e);
            Mem.Page_table.drop_twin pt e;
            e.Mem.Page_table.dirty <- false
        | Remote ws ->
            let d =
              Mem.Diff.create ~page:0 ~twin:data ~current:(apply_writes data ws)
            in
            Mem.Diff.apply d data;
            Option.iter (Mem.Diff.apply d) e.Mem.Page_table.twin
        | Install a ->
            Mem.Page_table.install_copy pt e (Mem.Words.of_array a) ~write_through:false
              ~dirty_without_twin:"dirty page without twin");
        agrees ()
      in
      List.for_all step ops)

(* A store that skips the marking API escapes the ranged diff; a paranoid
   table's full-page cross-check names it. *)
let test_page_table_paranoid_diff () =
  let pt =
    Mem.Page_table.create ~paranoid:true ~node:3 ~pool:(Mem.Words.Pool.create 8)
      (Mem.Layout.create ~page_words:8)
  in
  let e = Mem.Page_table.ensure pt 5 in
  let data = Mem.Page_table.attach_copy pt e in
  Mem.Page_table.make_twin pt e;
  Mem.Words.set data 1 1.;
  Mem.Page_table.mark_written e ~lo:1 ~hi:1;
  check Alcotest.int "marked store diffed" 1 (Mem.Diff.word_count (Mem.Page_table.diff pt e));
  Mem.Words.set data 6 2.;
  Alcotest.check_raises "unmarked store"
    (Failure
       "Page_table.diff: node 3 page 5: ranged diff over [1, 1] has 1 words, the full-page \
        scan 2")
    (fun () -> ignore (Mem.Page_table.diff pt e))

let test_page_table_cached_pages () =
  let pt = table 8 in
  ignore (Mem.Page_table.ensure pt 0);
  let e1 = Mem.Page_table.ensure pt 1 in
  ignore (Mem.Page_table.attach_copy pt e1);
  let cached = Mem.Page_table.cached_pages pt in
  check Alcotest.(list int) "only cached" [ 1 ]
    (List.map (fun e -> e.Mem.Page_table.page) cached)

(* ------------------------------------------------------------------ *)
(* Accounting *)

let test_accounting () =
  let a = Mem.Accounting.create () in
  Mem.Accounting.add a 100;
  Mem.Accounting.add a 50;
  check Alcotest.int "current" 150 (Mem.Accounting.current a);
  Mem.Accounting.sub a 120;
  check Alcotest.int "after sub" 30 (Mem.Accounting.current a);
  check Alcotest.int "peak" 150 (Mem.Accounting.peak a);
  Mem.Accounting.sub a 1000;
  check Alcotest.int "floor at zero" 0 (Mem.Accounting.current a);
  Mem.Accounting.reset a;
  check Alcotest.int "reset peak" 0 (Mem.Accounting.peak a)

let suite =
  [
    ("layout basics", `Quick, test_layout_basics);
    ("layout pages_for", `Quick, test_layout_pages_for);
    ("layout rejects non-power", `Quick, test_layout_rejects_non_power);
    QCheck_alcotest.to_alcotest prop_layout_roundtrip;
    ("diff roundtrip", `Quick, test_diff_roundtrip);
    ("diff empty", `Quick, test_diff_empty);
    ("diff bitwise semantics", `Quick, test_diff_bitwise_semantics);
    ("diff length mismatch", `Quick, test_diff_length_mismatch);
    ("diff merge page mismatch", `Quick, test_diff_merge_pages_mismatch);
    QCheck_alcotest.to_alcotest prop_diff_apply_equals_writes;
    QCheck_alcotest.to_alcotest prop_diff_merge_equivalent;
    QCheck_alcotest.to_alcotest prop_diff_offsets_sorted;
    QCheck_alcotest.to_alcotest prop_diff_matches_reference;
    QCheck_alcotest.to_alcotest prop_diff_merge_matches_reference;
    ("pool recycles", `Quick, test_pool_recycles);
    ("pool take_zero clears", `Quick, test_pool_take_zero_clears);
    ("pool take_copy bit-exact", `Quick, test_pool_take_copy_bit_exact);
    ("pool rejects wrong length", `Quick, test_pool_rejects_wrong_length);
    ("pool poison", `Quick, test_pool_poison);
    ("page table ensure", `Quick, test_page_table_ensure);
    ("page table missing entry", `Quick, test_page_table_entry_missing);
    ("page table rejects pool length", `Quick, test_page_table_rejects_pool_length);
    ("page table twin", `Quick, test_page_table_twin);
    ("page table install copy", `Quick, test_page_table_install_copy);
    QCheck_alcotest.to_alcotest prop_ranged_diff_matches_full;
    ("page table paranoid diff", `Quick, test_page_table_paranoid_diff);
    ("page table cached pages", `Quick, test_page_table_cached_pages);
    ("accounting", `Quick, test_accounting);
  ]
