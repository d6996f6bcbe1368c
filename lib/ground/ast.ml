(* Abstract syntax for non-ground disjunctive Datalog rules.

   The paper works with propositional ("grounded") databases; real
   disjunctive deductive databases are written with variables and grounded
   before evaluation.  This front end provides that step: function-free
   terms (Datalog), so the Herbrand base is finite and grounding lands in
   the propositional core. *)

type term = Var of string | Const of string

type atom = { pred : string; args : term list }

type rule = { head : atom list; pos : atom list; neg : atom list }

type program = rule list

let atom pred args = { pred; args }

let rule_vars r =
  let of_atom a =
    List.filter_map (function Var v -> Some v | Const _ -> None) a.args
  in
  List.sort_uniq String.compare
    (List.concat_map of_atom (r.head @ r.pos @ r.neg))

(* Safety: every variable of the rule occurs in some positive body atom. *)
let is_safe r =
  let pos_vars =
    List.concat_map
      (fun a ->
        List.filter_map (function Var v -> Some v | Const _ -> None) a.args)
      r.pos
  in
  List.for_all (fun v -> List.mem v pos_vars) (rule_vars r)

let constants_of_program rules =
  let of_atom a =
    List.filter_map (function Const c -> Some c | Var _ -> None) a.args
  in
  List.sort_uniq String.compare
    (List.concat_map
       (fun r -> List.concat_map of_atom (r.head @ r.pos @ r.neg))
       rules)

let pp_term ppf = function
  | Var v -> Fmt.string ppf v
  | Const c -> Fmt.string ppf c

let pp_atom ppf a =
  if a.args = [] then Fmt.string ppf a.pred
  else
    Fmt.pf ppf "%s(%a)" a.pred
      (Fmt.list ~sep:(Fmt.any ", ") pp_term)
      a.args

let pp_rule ppf r =
  (match r.head with
  | [] -> ()
  | head -> Fmt.pf ppf "%a" (Fmt.list ~sep:(Fmt.any " | ") pp_atom) head);
  if r.pos <> [] || r.neg <> [] then begin
    Fmt.pf ppf "%s:- " (if r.head = [] then "" else " ");
    Fmt.pf ppf "%a"
      (Fmt.list ~sep:(Fmt.any ", ") pp_atom)
      r.pos;
    if r.pos <> [] && r.neg <> [] then Fmt.string ppf ", ";
    Fmt.pf ppf "%a"
      (Fmt.list ~sep:(Fmt.any ", ") (fun ppf a -> Fmt.pf ppf "not %a" pp_atom a))
      r.neg
  end;
  Fmt.string ppf "."
