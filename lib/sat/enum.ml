open Ddb_logic

(* Model enumeration by exact blocking clauses over a projection universe.
   The solver is mutated (blocking clauses accumulate); callers normally use
   a dedicated solver instance. *)

let blocking_clause ~universe m =
  List.init universe (fun v ->
      if Interp.mem m v then Lit.Neg v else Lit.Pos v)

(* Iterate the models of [solver], projected to the first [universe] atoms,
   each projection reported exactly once, until the callback returns
   [`Stop].  Each reported model charges the budget's enumeration cap. *)
let iter ~universe solver f =
  let continue = ref true in
  while !continue do
    match Solver.solve solver with
    | Solver.Unsat -> continue := false
    | Solver.Sat ->
      let m = Solver.model ~universe solver in
      Ddb_budget.Budget.on_model ();
      (match f m with `Stop -> continue := false | `Continue -> ());
      if !continue then Solver.add_clause solver (blocking_clause ~universe m)
  done

let all_models ~num_vars clauses =
  let solver = Solver.of_clauses ~num_vars clauses in
  let acc = ref [] in
  iter ~universe:num_vars solver (fun m ->
      acc := m :: !acc;
      `Continue);
  List.rev !acc

let count_models ~num_vars clauses = List.length (all_models ~num_vars clauses)
