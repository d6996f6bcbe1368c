open Ddb_logic

(* 2-QBF instances: a quantifier prefix with two blocks over disjoint
   variable sets and a propositional matrix.  These are the canonical
   Sigma-2 / Pi-2 complete problems the paper reduces from; we use them both
   to generate provably hard database instances and as the reference oracle
   at the second level of the polynomial hierarchy. *)

type prefix = Exists_forall | Forall_exists

type t = {
  prefix : prefix;
  num_vars : int; (* all matrix atoms are < num_vars *)
  block1 : int list; (* outermost quantifier block *)
  block2 : int list; (* innermost quantifier block *)
  matrix : Formula.t;
}

(* Validation is linear in the blocks and the matrix: both blocks are
   marked in one array, and the matrix is walked once against it. *)
let make ~prefix ~num_vars ~block1 ~block2 ~matrix =
  let b1 = List.sort_uniq Int.compare block1 in
  let b2 = List.sort_uniq Int.compare block2 in
  if List.exists (fun v -> v < 0 || v >= num_vars) (b1 @ b2) then
    invalid_arg "Qbf.make: variable out of range";
  let bound = Array.make num_vars false in
  List.iter (fun v -> bound.(v) <- true) b1;
  List.iter
    (fun v ->
      if bound.(v) then invalid_arg "Qbf.make: quantifier blocks overlap";
      bound.(v) <- true)
    b2;
  let rec check = function
    | Formula.True | Formula.False -> ()
    | Formula.Atom v ->
      if v < 0 || v >= num_vars || not bound.(v) then
        invalid_arg "Qbf.make: free variable in matrix"
    | Formula.Not f -> check f
    | Formula.And (a, b) | Formula.Or (a, b) | Formula.Imp (a, b)
    | Formula.Iff (a, b) ->
      check a;
      check b
  in
  check matrix;
  { prefix; num_vars; block1 = b1; block2 = b2; matrix }

let negate t =
  {
    t with
    prefix =
      (match t.prefix with
      | Exists_forall -> Forall_exists
      | Forall_exists -> Exists_forall);
    matrix = Formula.not_ t.matrix;
  }
