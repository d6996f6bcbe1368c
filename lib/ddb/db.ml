open Ddb_logic
open Ddb_sat

(* A propositional disjunctive database: a finite set of rule-form clauses
   over a fixed universe.  Following the paper's classification (after
   Fernandez & Minker): any database is a DNDB; without negation it is a
   DDDB; with stratified negation a DSDB.  "Positive DDB" (the Table 1
   setting) additionally excludes integrity clauses. *)

type t = { vocab : Vocab.t; clauses : Clause.t list; num_vars : int }

let make ?vocab clauses =
  let vocab =
    match vocab with Some v -> v | None -> Vocab.create ()
  in
  let max_clause_atom =
    List.fold_left (fun acc c -> max acc (Clause.max_atom c)) (-1) clauses
  in
  let num_vars = max (Vocab.size vocab) (max_clause_atom + 1) in
  { vocab; clauses; num_vars }

let of_string src =
  let vocab = Vocab.create () in
  let clauses = Parse.program vocab src in
  make ~vocab clauses

let of_file path =
  let vocab = Vocab.create () in
  let clauses = Parse.program_of_file vocab path in
  make ~vocab clauses

let vocab t = t.vocab
let clauses t = t.clauses
let num_vars t = t.num_vars
let size t = List.length t.clauses

(* Pad the universe (e.g. when a query formula mentions fresh atoms: they are
   unconstrained by the database but participate in minimization). *)
let with_universe t n =
  if n <= t.num_vars then t else { t with num_vars = n }

(* --- classification --- *)

let has_integrity t = List.exists Clause.is_integrity t.clauses
let has_negation t = List.exists (fun c -> not (Clause.is_positive c)) t.clauses
let has_disjunction t = List.exists Clause.is_disjunctive t.clauses

let is_dddb t = not (has_negation t)

(* Table 1 setting: no negation and no integrity clauses. *)
let is_positive_ddb t = (not (has_negation t)) && not (has_integrity t)

(* Non-disjunctive (normal logic program) fragment. *)
let is_normal_program t =
  List.for_all (fun c -> List.length (Clause.head c) <= 1) t.clauses

(* --- classical semantics --- *)

let satisfied_by m t = List.for_all (Clause.satisfied_by m) t.clauses

let to_cnf t = List.map Clause.to_lits t.clauses

let theory t = Minimal.theory ~num_vars:t.num_vars (to_cnf t)

let solver t = Solver.of_clauses ~num_vars:t.num_vars (to_cnf t)

let atoms t = List.init t.num_vars Fun.id

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (Clause.pp ~vocab:t.vocab))
    t.clauses

let to_string t = Fmt.str "%a" pp t
