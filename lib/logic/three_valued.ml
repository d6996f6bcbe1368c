(* Three-valued (Kleene) interpretations for the Partial Disjunctive Stable
   Model semantics: truth values 0 (false), 1/2 (undefined), 1 (true).

   An interpretation is a pair of disjoint atom sets (true, undefined);
   everything else is false.  The truth ordering 0 < 1/2 < 1 lifts pointwise
   to interpretations; partial stable models are the interpretations that are
   minimal 3-valued models of their own reduct. *)

type value = F | U | T

let value_compare a b =
  let rank = function F -> 0 | U -> 1 | T -> 2 in
  Int.compare (rank a) (rank b)

let value_le a b = value_compare a b <= 0
let value_min a b = if value_le a b then a else b
let value_max a b = if value_le a b then b else a

(* 1 - v: negation in Kleene logic. *)
let value_neg = function F -> T | U -> U | T -> F

type t = { tru : Interp.t; und : Interp.t }

let make ~tru ~und =
  if Interp.universe_size tru <> Interp.universe_size und then
    invalid_arg "Three_valued.make: mixed universes";
  if not (Interp.is_empty (Interp.inter tru und)) then
    invalid_arg "Three_valued.make: true and undefined overlap";
  { tru; und }

let of_two_valued m = { tru = m; und = Interp.empty (Interp.universe_size m) }

let all_undefined n = { tru = Interp.empty n; und = Interp.full n }

let universe_size i = Interp.universe_size i.tru

let tru i = i.tru
let fls i = Interp.diff (Interp.complement i.tru) i.und

let value i x =
  if Interp.mem i.tru x then T else if Interp.mem i.und x then U else F

let is_total i = Interp.is_empty i.und

let to_two_valued_opt i = if is_total i then Some i.tru else None

let equal a b = Interp.equal a.tru b.tru && Interp.equal a.und b.und

(* Pointwise truth ordering: a <= b iff value_a(x) <= value_b(x) for all x.
   Equivalently: true(a) ⊆ true(b) and true(a) ∪ undef(a) ⊆ true(b) ∪ undef(b). *)
let le a b =
  Interp.subset a.tru b.tru
  && Interp.subset (Interp.union a.tru a.und) (Interp.union b.tru b.und)

let lt a b = le a b && not (equal a b)

let value_of_atoms ~empty ~combine i atoms =
  List.fold_left (fun acc x -> combine acc (value i x)) empty atoms

let head_value i head = value_of_atoms ~empty:F ~combine:value_max i head

let conj_value i atoms = value_of_atoms ~empty:T ~combine:value_min i atoms

(* Truth of a database rule under Kleene semantics: the rule holds iff
   val(head) >= val(body), where the body conjoins positive atoms and the
   negations of the negative ones. *)
let satisfies_clause i c =
  let neg_value =
    List.fold_left
      (fun acc x -> value_min acc (value_neg (value i x)))
      T (Clause.body_neg c)
  in
  let body = value_min (conj_value i (Clause.body_pos c)) neg_value in
  value_le body (head_value i (Clause.head c))

(* Rules of a 3-valued reduct: negative literals replaced by the constant
   [floor] (the minimum of the constants 1 - I(c) over the erased ~c). *)
type reduced_rule = { head : int list; pos : int list; floor : value }

let reduce_clause i c =
  let floor =
    List.fold_left
      (fun acc x -> value_min acc (value_neg (value i x)))
      T (Clause.body_neg c)
  in
  { head = Clause.head c; pos = Clause.body_pos c; floor }

let satisfies_reduced i r =
  let body = value_min r.floor (conj_value i r.pos) in
  value_le body (head_value i r.head)

(* Enumerate all 3^n interpretations — reference engine only. *)
let all n =
  if n > 30 then invalid_arg "Three_valued.all: universe too large";
  let rec go x acc =
    if x < 0 then acc
    else
      go (x - 1)
        (List.concat_map
           (fun i ->
             [
               i;
               { i with tru = Interp.add i.tru x };
               { i with und = Interp.add i.und x };
             ])
           acc)
  in
  go (n - 1) [ { tru = Interp.empty n; und = Interp.empty n } ]

let rec eval_formula i = function
  | Formula.True -> T
  | Formula.False -> F
  | Formula.Atom x -> value i x
  | Formula.Not f -> value_neg (eval_formula i f)
  | Formula.And (a, b) -> value_min (eval_formula i a) (eval_formula i b)
  | Formula.Or (a, b) -> value_max (eval_formula i a) (eval_formula i b)
  | Formula.Imp (a, b) ->
    value_max (value_neg (eval_formula i a)) (eval_formula i b)
  | Formula.Iff (a, b) ->
    let va = eval_formula i a and vb = eval_formula i b in
    value_min
      (value_max (value_neg va) vb)
      (value_max (value_neg vb) va)

let pp ?vocab ppf i =
  let name x =
    match vocab with Some v -> Vocab.name v x | None -> string_of_int x
  in
  let entries =
    List.filter_map
      (fun x ->
        match value i x with
        | F -> None
        | U -> Some (name x ^ "=1/2")
        | T -> Some (name x ^ "=1"))
      (List.init (universe_size i) (fun k -> k))
  in
  Fmt.pf ppf "@[<h>{%a}@]" (Fmt.list ~sep:(Fmt.any ",@ ") Fmt.string) entries
