(* Binary min-heap: the reference model the calendar queue ([Sim.Cqueue])
   is checked against in test_sim.ml. Simple enough to be obviously right,
   with the same ordering contract.

   The payload lives in a mutable field cleared by [pop_min]: a popped
   entry can stay reachable from vacated backing-array slots (the swap-down
   copy, or the fill slots [grow] seeds) until those slots are overwritten,
   and a 4-word husk there is harmless — but the payload it used to carry
   (an event closure pinning continuations and page data in the simulator)
   must not be. *)
type 'a entry = { key : float; seq : int; mutable value : 'a option }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  hint : int;
}

(* [capacity] presizes the backing array lazily: the first [grow] jumps
   straight to the hint instead of doubling from 16, so heaps with a
   predictable population never re-grow in a tight loop. *)
let create ?(capacity = 0) () = { data = [||]; size = 0; next_seq = 0; hint = max 0 capacity }

let length h = h.size

let is_empty h = h.size = 0

let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let grow h entry =
  let capacity = Array.length h.data in
  if h.size = capacity then begin
    let capacity' = max h.hint (max 16 (2 * capacity)) in
    let data' = Array.make capacity' entry in
    Array.blit h.data 0 data' 0 h.size;
    h.data <- data'
  end

let rec sift_up data i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less data.(i) data.(parent) then begin
      let tmp = data.(i) in
      data.(i) <- data.(parent);
      data.(parent) <- tmp;
      sift_up data parent
    end
  end

let rec sift_down data size i =
  let left = (2 * i) + 1 in
  if left < size then begin
    let right = left + 1 in
    let smallest = if right < size && less data.(right) data.(left) then right else left in
    if less data.(smallest) data.(i) then begin
      let tmp = data.(i) in
      data.(i) <- data.(smallest);
      data.(smallest) <- tmp;
      sift_down data size smallest
    end
  end

let push h ~key value =
  let entry = { key; seq = h.next_seq; value = Some value } in
  h.next_seq <- h.next_seq + 1;
  grow h entry;
  h.data.(h.size) <- entry;
  h.size <- h.size + 1;
  sift_up h.data (h.size - 1)

let pop_min h =
  if h.size = 0 then invalid_arg "Heap.pop_min: heap is empty";
  let min = h.data.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.data.(0) <- h.data.(h.size);
    sift_down h.data h.size 0
  end;
  let v =
    match min.value with
    | Some v -> v
    | None -> assert false (* only [pop_min] clears, and it removes the entry *)
  in
  min.value <- None;
  (min.key, v)

let peek_min h =
  if h.size = 0 then invalid_arg "Heap.peek_min: heap is empty";
  let min = h.data.(0) in
  match min.value with
  | Some v -> (min.key, v)
  | None -> assert false

let clear h =
  h.data <- [||];
  h.size <- 0
