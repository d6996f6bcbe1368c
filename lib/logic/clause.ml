(* Database clauses in the paper's rule form:

     a1 v ... v an  <-  b1 ^ ... ^ bk ^ ~c1 ^ ... ^ ~cm        (n, k, m >= 0)

   n = 0 is an integrity clause, m = 0 a positive clause, and n = 1 with
   m = 0 a definite clause.  Atom lists are kept sorted and duplicate-free so
   that structural equality is semantic equality of the rule syntax. *)

type t = { head : int list; pos : int list; neg : int list }

let sort_uniq = List.sort_uniq Int.compare

let make ~head ~pos ~neg =
  { head = sort_uniq head; pos = sort_uniq pos; neg = sort_uniq neg }

let fact atoms = make ~head:atoms ~pos:[] ~neg:[]

let integrity ~pos ~neg = make ~head:[] ~pos ~neg

let head c = c.head
let body_pos c = c.pos
let body_neg c = c.neg

let is_integrity c = c.head = []
let is_positive c = c.neg = []
let is_definite c = c.neg = [] && List.length c.head = 1
let is_disjunctive c = List.length c.head > 1

let equal a b = a.head = b.head && a.pos = b.pos && a.neg = b.neg

let max_atom c =
  List.fold_left max (-1) (c.head @ c.pos @ c.neg)

(* Truth of the rule in a 2-valued interpretation: body true => head true. *)
let body_holds m c =
  List.for_all (Interp.mem m) c.pos
  && List.for_all (fun x -> not (Interp.mem m x)) c.neg

let satisfied_by m c =
  (not (body_holds m c)) || List.exists (Interp.mem m) c.head

(* The rule as a classical disjunction:  H v ~B+ v B-. *)
let to_lits c =
  List.map Lit.pos c.head @ List.map Lit.neg c.pos @ List.map Lit.pos c.neg

(* A classical disjunction of literals as a rule: positive literals to the
   head, negated atoms to the positive body. *)
let of_lits lits =
  let head, pos =
    List.fold_left
      (fun (h, p) l ->
        match l with Lit.Pos x -> (x :: h, p) | Lit.Neg x -> (h, x :: p))
      ([], []) lits
  in
  make ~head ~pos ~neg:[]

(* Gelfond-Lifschitz reduct step for a single rule: [None] when the rule is
   discarded (some ~c has c true in [m]), otherwise the rule with its
   negative body erased. *)
let reduce m c =
  if List.exists (Interp.mem m) c.neg then None
  else Some { c with neg = [] }

(* Negative body literals moved to the head as positive atoms — the
   transformation the paper applies before iterating ECWA for the ICWA. *)
let shift_negation c = make ~head:(c.head @ c.neg) ~pos:c.pos ~neg:[]

let pp ?vocab ppf c =
  let name x =
    match vocab with Some v -> Vocab.name v x | None -> string_of_int x
  in
  let atom ppf x = Fmt.string ppf (name x) in
  let natom ppf x = Fmt.pf ppf "not %s" (name x) in
  let sep = Fmt.any ",@ " in
  (match c.head with
  | [] -> ()
  | head -> Fmt.pf ppf "@[<h>%a@]" (Fmt.list ~sep:(Fmt.any " |@ ") atom) head);
  if c.pos <> [] || c.neg <> [] then begin
    Fmt.pf ppf "%s:- " (if c.head = [] then "" else " ");
    Fmt.pf ppf "@[<h>%a@]" (Fmt.list ~sep atom) c.pos;
    if c.pos <> [] && c.neg <> [] then sep ppf ();
    Fmt.pf ppf "@[<h>%a@]" (Fmt.list ~sep natom) c.neg
  end;
  Fmt.string ppf "."

let to_string ?vocab c = Fmt.str "%a" (pp ?vocab) c
