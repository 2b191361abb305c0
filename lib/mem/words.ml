type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let make n =
  let a = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout n in
  Bigarray.Array1.fill a 0.0;
  a

(* Redeclared primitives, specialized to [t]: without flambda, a wrapper
   function would not reliably inline across modules, and a non-inlined
   call boxes the float. As externals, every use site compiles to a direct
   (unboxed) float64 load or store. *)
external length : t -> int = "%caml_ba_dim_1"

external get : t -> int -> float = "%caml_ba_ref_1"

external set : t -> int -> float -> unit = "%caml_ba_set_1"

external unsafe_get : t -> int -> float = "%caml_ba_unsafe_ref_1"

external unsafe_set : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"

let fill (a : t) v = Bigarray.Array1.fill a v

let blit ~src ~dst = Bigarray.Array1.blit src dst

let copy (a : t) =
  let b = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (length a) in
  Bigarray.Array1.blit a b;
  b

let of_array xs =
  let a = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (Array.length xs) in
  Array.iteri (fun i x -> Bigarray.Array1.unsafe_set a i x) xs;
  a

let to_array (a : t) = Array.init (length a) (fun i -> Bigarray.Array1.unsafe_get a i)

let iter f (a : t) =
  for i = 0 to length a - 1 do
    f (Bigarray.Array1.unsafe_get a i)
  done

let iteri f (a : t) =
  for i = 0 to length a - 1 do
    f i (Bigarray.Array1.unsafe_get a i)
  done

module Pool = struct
  type words = t

  type t = { len : int; poison : bool; mutable free : words array; mutable count : int }

  let empty : words = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout 0

  let create ?(poison = false) len =
    if len <= 0 then invalid_arg (Printf.sprintf "Words.Pool.create: length %d" len);
    { len; poison; free = [||]; count = 0 }

  let page_words p = p.len

  (* Pop the most recently released buffer, or allocate a fresh one
     (uninitialized: every caller overwrites it whole). *)
  let take p =
    if p.count = 0 then Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout p.len
    else begin
      p.count <- p.count - 1;
      let b = p.free.(p.count) in
      p.free.(p.count) <- empty;
      b
    end

  let take_zero p =
    let b = take p in
    fill b 0.0;
    b

  let take_copy p src =
    let b = take p in
    blit ~src ~dst:b;
    b

  let release p b =
    if length b <> p.len then
      invalid_arg
        (Printf.sprintf "Words.Pool.release: buffer of %d words in a pool of %d-word pages"
           (length b) p.len);
    if p.poison then fill b Float.nan;
    if p.count = Array.length p.free then begin
      let free' = Array.make (max 16 (2 * p.count)) empty in
      Array.blit p.free 0 free' 0 p.count;
      p.free <- free'
    end;
    p.free.(p.count) <- b;
    p.count <- p.count + 1

  let iter_free f p =
    for i = 0 to p.count - 1 do
      f p.free.(i)
    done
end
