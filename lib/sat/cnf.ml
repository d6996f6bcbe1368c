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

(* Tseitin encoding of a query formula.

   [tseitin ~next_var f] returns [(clauses, next_var', out)]: clauses over
   atoms < next_var' (fresh variables start at [next_var]) that are
   equisatisfiable with the definition of the output literal [out]: any model
   of the clauses gives [out] the truth value of [f], and any assignment of
   the original atoms extends to a model of the clauses.  Asserting [out]
   (resp. its negation) asserts [f] (resp. ¬f). *)
let tseitin ~next_var f =
  let clauses = ref [] in
  let fresh = ref next_var in
  let emit c = clauses := c :: !clauses in
  let new_var () =
    let v = !fresh in
    incr fresh;
    v
  in
  let define_and out a b =
    (* out <-> a & b *)
    emit [ Lit.negate out; a ];
    emit [ Lit.negate out; b ];
    emit [ out; Lit.negate a; Lit.negate b ]
  in
  let define_or out a b =
    emit [ out; Lit.negate a ];
    emit [ out; Lit.negate b ];
    emit [ Lit.negate out; a; b ]
  in
  let rec go f =
    match f with
    | Formula.True ->
      let v = new_var () in
      emit [ Lit.Pos v ];
      Lit.Pos v
    | Formula.False ->
      let v = new_var () in
      emit [ Lit.Neg v ];
      Lit.Pos v
    | Formula.Atom x -> Lit.Pos x
    | Formula.Not g -> Lit.negate (go g)
    | Formula.And (a, b) ->
      let la = go a and lb = go b in
      let out = Lit.Pos (new_var ()) in
      define_and out la lb;
      out
    | Formula.Or (a, b) ->
      let la = go a and lb = go b in
      let out = Lit.Pos (new_var ()) in
      define_or out la lb;
      out
    | Formula.Imp (a, b) -> go (Formula.Or (Formula.Not a, b))
    | Formula.Iff (a, b) ->
      let la = go a and lb = go b in
      let out = Lit.Pos (new_var ()) in
      (* out <-> (la <-> lb) *)
      emit [ Lit.negate out; Lit.negate la; lb ];
      emit [ Lit.negate out; la; Lit.negate lb ];
      emit [ out; la; lb ];
      emit [ out; Lit.negate la; Lit.negate lb ];
      out
  in
  let out = go f in
  (List.rev !clauses, !fresh, out)

(* Asserting encoding: clauses satisfiable exactly by the extensions of the
   models of [f], built for solvers that assert a formula rather than name
   it.

   The top level is split into conjuncts (through And, ¬Or, ¬→, ¬¬) and
   each conjunct becomes one clause of its flattened disjuncts (through Or,
   →, ¬And), so a clause-shaped conjunct costs no auxiliary.  A disjunct
   that is not a literal is named by an auxiliary: And/Or nodes flattened
   n-ary (one auxiliary per maximal run of the same connective under its
   polarity), Iff nodes binary.  Constants fold away.

   Definitions follow polarity (Plaisted–Greenbaum): an auxiliary that only
   occurs positively gets just the clauses of v → node, and the full v ↔
   node is kept for the operands of an Iff, which occur both ways.

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

let assert_clauses ~next_var f =
  let groups = ref [] in
  let fresh = ref next_var in
  let emit group = groups := group :: !groups in
  let new_var () =
    let v = !fresh in
    incr fresh;
    v
  in
  (* [node ~full pos f] is a constant or a literal L for f under polarity
     [pos]: L → f always holds, and L ↔ f when [full]. *)
  let rec node ~full pos f =
    match f with
    | Formula.True -> Const pos
    | Formula.False -> Const (not pos)
    | Formula.Atom x -> Lit (if pos then Lit.Pos x else Lit.Neg x)
    | Formula.Not g -> node ~full (not pos) g
    | Formula.Iff (a, b) -> (
      let na = node ~full:true true a in
      let nb = node ~full:true true b in
      match (na, nb) with
      | Const ca, Const cb -> Const (pos = (ca = cb))
      | Const c, Lit l | Lit l, Const c ->
        Lit (if pos = c then l else Lit.negate l)
      | Lit la, Lit lb ->
        let v = Lit.Pos (new_var ()) in
        let nv = Lit.negate v and nla = Lit.negate la and nlb = Lit.negate lb in
        (* v → (la ↔ lb) *)
        let imp = [ [ nv; nla; lb ]; [ nv; la; nlb ] ] in
        (* (la ↔ lb) → v *)
        let rev = [ [ v; la; lb ]; [ v; nla; nlb ] ] in
        emit (if full then imp @ rev else if pos then imp else rev);
        Lit (if pos then v else Lit.negate v))
    | Formula.And _ | Formula.Or _ | Formula.Imp _ -> (
      let is_and =
        match (f, pos) with
        | Formula.And _, true | Formula.Or _, false | Formula.Imp _, false ->
          true
        | _ -> false
      in
      let children =
        if is_and then conjuncts pos f [] else disjuncts pos f []
      in
      let absorbing = not is_and in
      match literals ~full ~absorbing children with
      | None -> Const absorbing
      | Some [] -> Const (not absorbing)
      | Some [ l ] -> Lit l
      | Some lits ->
        let v = Lit.Pos (new_var ()) in
        let nv = Lit.negate v in
        (if is_and then
           (* v → l1 & ... & lk, and the converse when [full] *)
           let imp = List.map (fun l -> [ nv; l ]) lits in
           emit (if full then (v :: List.map Lit.negate lits) :: imp else imp)
         else
           (* v → l1 | ... | lk, and the converse when [full] *)
           let imp = nv :: lits in
           emit
             (if full then imp :: List.map (fun l -> [ v; Lit.negate l ]) lits
              else [ imp ]));
        Lit v)
  (* The children's literals in order, constants dropped; [None] when a
     child is the [absorbing] constant that decides the node outright. *)
  and literals ~full ~absorbing children =
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | (p, g) :: rest -> (
        match node ~full p g with
        | Const c when c = absorbing -> None
        | Const _ -> go acc rest
        | Lit l -> go (l :: acc) rest)
    in
    go [] children
  in
  let assert_conjunct (pos, g) =
    match literals ~full:false ~absorbing:true (disjuncts pos g []) with
    | None -> ()
    | Some clause -> emit [ clause ]
  in
  List.iter assert_conjunct (conjuncts true f []);
  (List.rev !groups, !fresh)
