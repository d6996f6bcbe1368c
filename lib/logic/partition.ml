(* A partition <P;Q;Z> of the universe, as used by CCWA, ECWA/CIRC and ICWA:
   P are the atoms being minimized, Q the fixed atoms, Z the floating ones.

   The preorder it induces on interpretations:
     M <=_{P;Z} N   iff   M∩Q = N∩Q  and  M∩P ⊆ N∩P        (Z is free)
   and its strict part M <_{P;Z} N additionally requires M∩P ≠ N∩P. *)

type t = { n : int; p : Interp.t; q : Interp.t; z : Interp.t }

let make ~p ~q ~z =
  let n = Interp.universe_size p in
  if Interp.universe_size q <> n || Interp.universe_size z <> n then
    invalid_arg "Partition.make: mixed universes";
  if not (Interp.is_empty (Interp.inter p q))
     || not (Interp.is_empty (Interp.inter p z))
     || not (Interp.is_empty (Interp.inter q z))
  then invalid_arg "Partition.make: components overlap";
  if not (Interp.equal (Interp.union p (Interp.union q z)) (Interp.full n))
  then invalid_arg "Partition.make: components do not cover the universe";
  { n; p; q; z }

let of_lists n ~p ~q ~z =
  make ~p:(Interp.of_list n p) ~q:(Interp.of_list n q) ~z:(Interp.of_list n z)

(* The GCWA/EGCWA partition: everything minimized. *)
let minimize_all n =
  { n; p = Interp.full n; q = Interp.empty n; z = Interp.empty n }

let universe_size t = t.n
let p t = t.p
let q t = t.q
let z t = t.z

let le t m n = Interp.equal_within t.q m n && Interp.subset_within t.p m n

let lt t m n = le t m n && not (Interp.equal_within t.p m n)

(* Equivalence for enumeration purposes: same (P,Q)-section (Z floats, so two
   interpretations equal within P∪Q are interchangeable for minimality). *)
let same_section t m n =
  Interp.equal_within t.p m n && Interp.equal_within t.q m n

let pp ?vocab ppf t =
  Fmt.pf ppf "@[<h>P=%a; Q=%a; Z=%a@]" (Interp.pp ?vocab) t.p
    (Interp.pp ?vocab) t.q (Interp.pp ?vocab) t.z
