(* Propositional formulas — the query language for "inference of a formula".

   Formulas are what we ask of a semantics (SEM(DB) |= F); they never appear
   inside the database itself, which is restricted to rule-form clauses. *)

type t =
  | True
  | False
  | Atom of int
  | Not of t
  | And of t * t
  | Or of t * t
  | Imp of t * t
  | Iff of t * t

let atom x = Atom x

let of_lit = function Lit.Pos x -> Atom x | Lit.Neg x -> Not (Atom x)

let not_ = function
  | True -> False
  | False -> True
  | Not f -> f
  | f -> Not f

let and_ a b =
  match (a, b) with
  | False, _ | _, False -> False
  | True, f | f, True -> f
  | _ -> And (a, b)

let or_ a b =
  match (a, b) with
  | True, _ | _, True -> True
  | False, f | f, False -> f
  | _ -> Or (a, b)

let big_and = function [] -> True | f :: fs -> List.fold_left and_ f fs
let big_or = function [] -> False | f :: fs -> List.fold_left or_ f fs

let rec eval m = function
  | True -> true
  | False -> false
  | Atom x -> Interp.mem m x
  | Not f -> not (eval m f)
  | And (a, b) -> eval m a && eval m b
  | Or (a, b) -> eval m a || eval m b
  | Imp (a, b) -> (not (eval m a)) || eval m b
  | Iff (a, b) -> eval m a = eval m b

let rec atoms_acc acc = function
  | True | False -> acc
  | Atom x -> x :: acc
  | Not f -> atoms_acc acc f
  | And (a, b) | Or (a, b) | Imp (a, b) | Iff (a, b) ->
    atoms_acc (atoms_acc acc a) b

let atoms f = List.sort_uniq Int.compare (atoms_acc [] f)

(* A fold, not [atoms]: asked on every formula question, it allocates
   nothing. *)
let rec max_atom = function
  | True | False -> -1
  | Atom x -> x
  | Not f -> max_atom f
  | And (a, b) | Or (a, b) | Imp (a, b) | Iff (a, b) ->
    Int.max (max_atom a) (max_atom b)

(* Negation normal form over {True, False, Atom, Not-of-atom, And, Or}. *)
let rec nnf = function
  | (True | False | Atom _) as f -> f
  | And (a, b) -> and_ (nnf a) (nnf b)
  | Or (a, b) -> or_ (nnf a) (nnf b)
  | Imp (a, b) -> or_ (nnf (Not a)) (nnf b)
  | Iff (a, b) -> and_ (nnf (Imp (a, b))) (nnf (Imp (b, a)))
  | Not f -> nnf_neg f

and nnf_neg = function
  | True -> False
  | False -> True
  | Atom _ as f -> not_ f
  | Not f -> nnf f
  | And (a, b) -> or_ (nnf_neg a) (nnf_neg b)
  | Or (a, b) -> and_ (nnf_neg a) (nnf_neg b)
  | Imp (a, b) -> and_ (nnf a) (nnf_neg b)
  | Iff (a, b) -> or_ (and_ (nnf a) (nnf_neg b)) (and_ (nnf_neg a) (nnf b))

(* Direct CNF by distribution.  Exponential in the worst case, but queries are
   small; the SAT layer's encoder ([Cnf]) takes anything bigger.
   Result: list of clauses, each a list of literals; [[]] is falsum, [] is
   verum.  Clauses are pruned of tautologies and duplicate literals. *)
let cnf f =
  let rec go = function
    | True -> []
    | False -> [ [] ]
    | Atom x -> [ [ Lit.Pos x ] ]
    | Not (Atom x) -> [ [ Lit.Neg x ] ]
    | Not _ | Imp _ | Iff _ -> assert false (* NNF *)
    | And (a, b) -> go a @ go b
    | Or (a, b) ->
      let ca = go a and cb = go b in
      List.concat_map (fun x -> List.map (fun y -> x @ y) cb) ca
  in
  let tautology c =
    List.exists (fun l -> List.exists (Lit.equal (Lit.negate l)) c) c
  in
  go (nnf f)
  |> List.map (List.sort_uniq Lit.compare)
  |> List.filter (fun c -> not (tautology c))
  |> List.sort_uniq Stdlib.compare

(* Dual: DNF as a list of terms (lists of literals); [] is falsum, [[]] verum. *)
let dnf f =
  let rec go = function
    | True -> [ [] ]
    | False -> []
    | Atom x -> [ [ Lit.Pos x ] ]
    | Not (Atom x) -> [ [ Lit.Neg x ] ]
    | Not _ | Imp _ | Iff _ -> assert false (* NNF *)
    | Or (a, b) -> go a @ go b
    | And (a, b) ->
      let da = go a and db = go b in
      List.concat_map (fun x -> List.map (fun y -> x @ y) db) da
  in
  let contradictory t =
    List.exists (fun l -> List.exists (Lit.equal (Lit.negate l)) t) t
  in
  go (nnf f)
  |> List.map (List.sort_uniq Lit.compare)
  |> List.filter (fun t -> not (contradictory t))
  |> List.sort_uniq Stdlib.compare

let rec equal a b =
  match (a, b) with
  | True, True | False, False -> true
  | Atom x, Atom y -> x = y
  | Not x, Not y -> equal x y
  | And (a1, b1), And (a2, b2)
  | Or (a1, b1), Or (a2, b2)
  | Imp (a1, b1), Imp (a2, b2)
  | Iff (a1, b1), Iff (a2, b2) ->
    equal a1 a2 && equal b1 b2
  | (True | False | Atom _ | Not _ | And _ | Or _ | Imp _ | Iff _), _ -> false

let pp ?vocab ppf f =
  let name x =
    match vocab with Some v -> Vocab.name v x | None -> string_of_int x
  in
  (* Precedence climbing: iff(1) < imp(2) < or(3) < and(4) < not/atom(5). *)
  let rec go prec ppf f =
    let paren p body =
      if prec > p then Fmt.pf ppf "(%t)" body else body ppf
    in
    match f with
    | True -> Fmt.string ppf "true"
    | False -> Fmt.string ppf "false"
    | Atom x -> Fmt.string ppf (name x)
    | Not g -> paren 5 (fun ppf -> Fmt.pf ppf "~%a" (go 5) g)
    | And (a, b) -> paren 4 (fun ppf -> Fmt.pf ppf "%a & %a" (go 4) a (go 5) b)
    | Or (a, b) -> paren 3 (fun ppf -> Fmt.pf ppf "%a | %a" (go 3) a (go 4) b)
    | Imp (a, b) -> paren 2 (fun ppf -> Fmt.pf ppf "%a -> %a" (go 3) a (go 2) b)
    | Iff (a, b) -> paren 1 (fun ppf -> Fmt.pf ppf "%a <-> %a" (go 2) a (go 1) b)
  in
  go 0 ppf f

let to_string ?vocab f = Fmt.str "%a" (pp ?vocab) f
