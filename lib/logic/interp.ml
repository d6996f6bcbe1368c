(* Interpretations over a fixed universe of [n] atoms, represented as
   immutable bitsets (62 bits per word).

   An interpretation is identified with the set of atoms it makes true.
   Besides the usual set algebra we provide the masked comparisons needed by
   the (P;Z)-minimality preorder of circumscription-style semantics:
   [subset_within mask a b] decides a ∩ mask ⊆ b ∩ mask without allocating. *)

type t = { n : int; bits : int array }

(* 62 bits per word: a fully-used word is exactly [max_int] (bits 0..61),
   keeping clear of the OCaml int's sign bit so "all bits set" is a plain
   representable constant. *)
let bits_per_word = 62

let full_word = max_int (* = 2^62 - 1: bits 0..61 *)

let words n = (n + bits_per_word - 1) / bits_per_word

let check_universe a b =
  if a.n <> b.n then invalid_arg "Interp: mixed universes"

let empty n =
  if n < 0 then invalid_arg "Interp.empty";
  { n; bits = Array.make (words n) 0 }

(* Mask for the partially-used last word, so that complement stays canonical. *)
let last_word_mask n =
  let r = n mod bits_per_word in
  if r = 0 then full_word else (1 lsl r) - 1

let full n =
  let w = words n in
  let bits = Array.make w full_word in
  if w > 0 then bits.(w - 1) <- last_word_mask n;
  { n; bits }

let universe_size t = t.n

let check_elt t x =
  if x < 0 || x >= t.n then invalid_arg "Interp: atom out of range"

let mem t x =
  check_elt t x;
  t.bits.(x / bits_per_word) land (1 lsl (x mod bits_per_word)) <> 0

let add t x =
  check_elt t x;
  let bits = Array.copy t.bits in
  let w = x / bits_per_word in
  bits.(w) <- bits.(w) lor (1 lsl (x mod bits_per_word));
  { t with bits }

let remove t x =
  check_elt t x;
  let bits = Array.copy t.bits in
  let w = x / bits_per_word in
  bits.(w) <- bits.(w) land lnot (1 lsl (x mod bits_per_word));
  { t with bits }

let singleton n x =
  add (empty n) x

let equal a b =
  check_universe a b;
  let rec go i = i < 0 || (a.bits.(i) = b.bits.(i) && go (i - 1)) in
  go (Array.length a.bits - 1)

let compare a b =
  check_universe a b;
  let rec go i =
    if i < 0 then 0
    else
      let c = Int.compare a.bits.(i) b.bits.(i) in
      if c <> 0 then c else go (i - 1)
  in
  go (Array.length a.bits - 1)

let is_empty a =
  let rec go i = i < 0 || (a.bits.(i) = 0 && go (i - 1)) in
  go (Array.length a.bits - 1)

let subset a b =
  check_universe a b;
  let rec go i = i < 0 || (a.bits.(i) land lnot b.bits.(i) = 0 && go (i - 1)) in
  go (Array.length a.bits - 1)

let proper_subset a b = subset a b && not (equal a b)

let map2 f a b =
  check_universe a b;
  { n = a.n; bits = Array.init (Array.length a.bits) (fun i -> f a.bits.(i) b.bits.(i)) }

let union = map2 ( lor )
let inter = map2 ( land )
let diff = map2 (fun x y -> x land lnot y)

let complement a =
  let w = Array.length a.bits in
  let bits = Array.init w (fun i -> lnot a.bits.(i) land full_word) in
  if w > 0 then bits.(w - 1) <- bits.(w - 1) land last_word_mask a.n;
  { a with bits }

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let cardinal a = Array.fold_left (fun acc w -> acc + popcount w) 0 a.bits

(* Masked comparisons: restrict both sides to [mask] before comparing. *)

let subset_within mask a b =
  check_universe a b;
  check_universe mask a;
  let rec go i =
    i < 0
    || (a.bits.(i) land mask.bits.(i) land lnot b.bits.(i) = 0 && go (i - 1))
  in
  go (Array.length a.bits - 1)

let equal_within mask a b =
  check_universe a b;
  check_universe mask a;
  let rec go i =
    i < 0
    || ((a.bits.(i) lxor b.bits.(i)) land mask.bits.(i) = 0 && go (i - 1))
  in
  go (Array.length a.bits - 1)

let iter f t =
  for x = 0 to t.n - 1 do
    if t.bits.(x / bits_per_word) land (1 lsl (x mod bits_per_word)) <> 0 then
      f x
  done

let fold f t init =
  let acc = ref init in
  iter (fun x -> acc := f x !acc) t;
  !acc

let for_all p t = fold (fun x ok -> ok && p x) t true

let exists p t = fold (fun x found -> found || p x) t false

let to_list t = List.rev (fold (fun x acc -> x :: acc) t [])

let of_list n xs = List.fold_left add (empty n) xs

let choose_opt t =
  let rec go x =
    if x >= t.n then None else if mem t x then Some x else go (x + 1)
  in
  go 0

(* Enumerate all 2^n interpretations.  Reference-engine only: callers are
   expected to guard against large [n]. *)
let all n =
  if n > Sys.int_size - 2 then invalid_arg "Interp.all: universe too large";
  let count = 1 lsl n in
  List.init count (fun code ->
      let bits = Array.make (words n) 0 in
      for x = 0 to n - 1 do
        if code land (1 lsl x) <> 0 then
          bits.(x / bits_per_word) <-
            bits.(x / bits_per_word) lor (1 lsl (x mod bits_per_word))
      done;
      { n; bits })

let of_pred n p = of_list n (List.filter p (List.init n (fun i -> i)))

let hash t = Hashtbl.hash t.bits

let pp ?vocab ppf t =
  let name x =
    match vocab with Some v -> Vocab.name v x | None -> string_of_int x
  in
  Fmt.pf ppf "@[<h>{%a}@]"
    (Fmt.list ~sep:(Fmt.any ",@ ") Fmt.string)
    (List.map name (to_list t))

let to_string ?vocab t = Fmt.str "%a" (pp ?vocab) t

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
