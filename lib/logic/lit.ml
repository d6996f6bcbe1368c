(* Signed atoms.  The logic layer uses this explicit representation; the SAT
   solver uses its own packed integer encoding (see Ddb_sat.Cnf). *)

type t = Pos of int | Neg of int

let pos x = Pos x
let neg x = Neg x

let atom = function Pos x | Neg x -> x

let negate = function Pos x -> Neg x | Neg x -> Pos x

let equal a b =
  match (a, b) with
  | Pos x, Pos y | Neg x, Neg y -> x = y
  | Pos _, Neg _ | Neg _, Pos _ -> false

let compare a b =
  let key = function Pos x -> (x, 0) | Neg x -> (x, 1) in
  Stdlib.compare (key a) (key b)

let holds interp = function
  | Pos x -> Interp.mem interp x
  | Neg x -> not (Interp.mem interp x)

let pp ?vocab ppf l =
  let name x =
    match vocab with Some v -> Vocab.name v x | None -> string_of_int x
  in
  match l with
  | Pos x -> Fmt.string ppf (name x)
  | Neg x -> Fmt.pf ppf "~%s" (name x)

let to_string ?vocab l = Fmt.str "%a" (pp ?vocab) l
