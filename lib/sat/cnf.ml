open Ddb_logic

(* Packed literal encoding used inside the solver: literal 2*v is the positive
   occurrence of variable v, literal 2*v+1 the negative one. *)

type plit = int

let plit_pos v = 2 * v
let plit_neg v = (2 * v) + 1
let plit_var (l : plit) = l lsr 1
let plit_sign (l : plit) = l land 1 = 0 (* true = positive *)
let plit_negate (l : plit) = l lxor 1

let plit_of_lit = function Lit.Pos v -> plit_pos v | Lit.Neg v -> plit_neg v

(* The one formula encoder.  Every formula that reaches a solver goes
   through its node builder, under one of two faces: [assert_clauses]
   asserts the formula, [named_literal] names it by a literal L with
   L → formula, to be activated by assuming L.

   The node builder flattens And/Or nodes n-ary (one auxiliary per maximal
   run of the same connective under its polarity) and gives Iff nodes one
   auxiliary each; literals need none, and constants fold away.
   Definitions follow polarity (Plaisted–Greenbaum): an auxiliary that only
   occurs positively gets just the clauses of v → node, and the full v ↔
   node is kept for the operands of an Iff, which occur both ways.  Setting
   every auxiliary to its node's truth value satisfies every definition,
   so the definitions never constrain the formula's atoms.

   Clauses come in groups, in order: a group is one asserted clause or the
   whole definition of one new auxiliary, whose clauses read only atoms and
   auxiliaries defined by earlier groups. *)

type node = Const of bool | Lit of Lit.t

(* Conjuncts / disjuncts of [f] under polarity [pos], as (polarity,
   subformula) pairs, flattened through connectives of the same kind. *)
let rec conjuncts pos f acc =
  match (f, pos) with
  | Formula.And (a, b), true | Formula.Or (a, b), false ->
    conjuncts pos a (conjuncts pos b acc)
  | Formula.Imp (a, b), false -> conjuncts true a (conjuncts false b acc)
  | Formula.Not g, _ -> conjuncts (not pos) g acc
  | _ -> (pos, f) :: acc

let rec disjuncts pos f acc =
  match (f, pos) with
  | Formula.Or (a, b), true | Formula.And (a, b), false ->
    disjuncts pos a (disjuncts pos b acc)
  | Formula.Imp (a, b), true -> disjuncts false a (disjuncts true b acc)
  | Formula.Not g, _ -> disjuncts (not pos) g acc
  | _ -> (pos, f) :: acc

(* Groups emitted so far (newest first) and the next free variable. *)
type builder = { mutable groups : Lit.t list list list; mutable fresh : int }

let emit b group = b.groups <- group :: b.groups

let new_var b =
  let v = b.fresh in
  b.fresh <- v + 1;
  Lit.Pos v

(* [node b ~full pos f] is a constant or a literal L for f under polarity
   [pos]: L → f always holds, and L ↔ f when [full]. *)
let rec node b ~full pos f =
  match f with
  | Formula.True -> Const pos
  | Formula.False -> Const (not pos)
  | Formula.Atom x -> Lit (if pos then Lit.Pos x else Lit.Neg x)
  | Formula.Not g -> node b ~full (not pos) g
  | Formula.Iff (x, y) -> (
    match (node b ~full:true true x, node b ~full:true true y) with
    | Const cx, Const cy -> Const (pos = (cx = cy))
    | Const c, Lit l | Lit l, Const c ->
      Lit (if pos = c then l else Lit.negate l)
    | Lit la, Lit lb ->
      let v = new_var b in
      let nv = Lit.negate v and nla = Lit.negate la and nlb = Lit.negate lb in
      (* v → (la ↔ lb) *)
      let imp = [ [ nv; nla; lb ]; [ nv; la; nlb ] ] in
      (* (la ↔ lb) → v *)
      let rev = [ [ v; la; lb ]; [ v; nla; nlb ] ] in
      emit b (if full then imp @ rev else if pos then imp else rev);
      Lit (if pos then v else Lit.negate v))
  | Formula.And _ | Formula.Or _ | Formula.Imp _ -> (
    let is_and =
      match (f, pos) with
      | Formula.And _, true | Formula.Or _, false | Formula.Imp _, false -> true
      | _ -> false
    in
    let children = if is_and then conjuncts pos f [] else disjuncts pos f [] in
    let absorbing = not is_and in
    match literals b ~full ~absorbing children with
    | None -> Const absorbing
    | Some [] -> Const (not absorbing)
    | Some [ l ] -> Lit l
    | Some lits ->
      let v = new_var b in
      let nv = Lit.negate v in
      (if is_and then
         (* v → l1 & ... & lk, and the converse when [full] *)
         let imp = List.map (fun l -> [ nv; l ]) lits in
         emit b (if full then (v :: List.map Lit.negate lits) :: imp else imp)
       else
         (* v → l1 | ... | lk, and the converse when [full] *)
         let imp = nv :: lits in
         emit b
           (if full then imp :: List.map (fun l -> [ v; Lit.negate l ]) lits
            else [ imp ]));
      Lit v)

(* The children's literals in order, constants dropped; [None] when a child
   is the [absorbing] constant that decides the node outright. *)
and literals b ~full ~absorbing children =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | (p, g) :: rest -> (
      match node b ~full p g with
      | Const c when c = absorbing -> None
      | Const _ -> go acc rest
      | Lit l -> go (l :: acc) rest)
  in
  go [] children

(* Asserting face: the top level is split into conjuncts (through And, ¬Or,
   ¬→, ¬¬) and each conjunct becomes one clause of its flattened disjuncts
   (through Or, →, ¬And), so a clause-shaped conjunct costs no auxiliary. *)
let assert_clauses ~next_var f =
  let b = { groups = []; fresh = next_var } in
  List.iter
    (fun (pos, g) ->
      match literals b ~full:false ~absorbing:true (disjuncts pos g []) with
      | None -> ()
      | Some clause -> emit b [ clause ])
    (conjuncts true f []);
  (List.rev b.groups, b.fresh)

(* Literal face: the root's node, so a literal names itself.  A constant
   gets a fresh variable, pinned false for False. *)
let named_literal ~next_var f =
  let b = { groups = []; fresh = next_var } in
  let l =
    match node b ~full:false true f with
    | Lit l -> l
    | Const c ->
      let v = new_var b in
      if not c then emit b [ [ Lit.negate v ] ];
      v
  in
  (List.concat (List.rev b.groups), b.fresh, l)
