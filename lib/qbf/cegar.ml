open Ddb_logic
open Ddb_sat

(* Counterexample-guided 2-QBF solver on top of the CDCL SAT solver, in
   the scheme of Janota & Marques-Silva, "Abstraction-based algorithm for
   2QBF" (SAT 2011).

   For exists-X forall-Y phi, phi's top-level conjuncts (as [Cnf] splits
   them) fall into phi_X, which reads no Y atom, and phi_Y, the rest:
     - the abstraction solver starts from phi_X's clauses, so every
       candidate sigma_X it proposes satisfies phi_X.  When phi_X is
       unsatisfiable, the first solve refutes the instance;
     - the check solver holds the clauses of not-phi_Y only, encoded when
       the first candidate needs checking.  A round pins X by assumptions
       and asks it for a counterexample sigma_Y; under a sigma_X that
       satisfies phi_X, some Y falsifies phi iff some Y falsifies phi_Y.
       With no phi_Y, the first candidate is a witness;
     - for every counterexample the abstraction receives phi_Y's clauses
       instantiated under sigma_Y: a clause with a true Y-literal is
       dropped, false Y-literals are stripped, and the auxiliaries whose
       definitions read Y get fresh copies, numbered after phi_X's.
       Clauses free of Y are the same under every sigma_Y and are added
       once, at the first refinement.  Nothing is rebuilt or re-encoded;
     - an UNSAT check certifies validity, an UNSAT abstraction refutes it.

   forall-X exists-Y phi is solved as the negation of an exists-forall
   instance.  Every call bumps [Stats.bump_sigma2]: this function *is* the
   Sigma-2 oracle of the complexity harness. *)

exception Too_many_rounds

let n_cegar = Ddb_obs.Trace.name "qbf.cegar"
let n_round = Ddb_obs.Trace.name "qbf.cegar.round"
let n_round_attr = Ddb_obs.Trace.name "round"
let n_num_vars = Ddb_obs.Trace.name "num_vars"
let n_rounds = Ddb_obs.Trace.name "rounds"
let n_valid = Ddb_obs.Trace.name "valid"
let n_refined = Ddb_obs.Trace.name "refined"

(* The refinement step: encodes phi_Y once and returns a function adding
   phi_Y[Y := sigma_Y] to [abstraction] for a counterexample sigma_Y.

   One forward pass over the encoder's groups finds the Y-dependent
   clauses: a group reads only atoms and earlier auxiliaries besides the
   one it defines, so that auxiliary, unseen until its group, depends on Y
   iff the group reads Y.  The abstraction numbers auxiliaries from
   [first_aux] on first use: Y-free ones once, Y-dependent ones afresh in
   every refinement ([stamp] holds the refinement that numbered them). *)
let refiner ~num_vars ~first_aux ~is_y abstraction phi_y =
  let groups, next_aux = Cnf.assert_clauses ~next_var:num_vars phi_y in
  let n_aux = next_aux - num_vars in
  let dep = Array.make n_aux false and seen = Array.make n_aux false in
  let reads_y l =
    let x = Lit.atom l in
    if x < num_vars then is_y.(x) else dep.(x - num_vars)
  in
  let y_dependent =
    List.concat_map
      (fun group ->
        let d = List.exists (List.exists reads_y) group in
        List.iter
          (List.iter (fun l ->
               let a = Lit.atom l - num_vars in
               if a >= 0 && not seen.(a) then begin
                 seen.(a) <- true;
                 dep.(a) <- d
               end))
          group;
        if d then group else [])
      groups
  in
  let abs_var = Array.make n_aux (-1) and stamp = Array.make n_aux 0 in
  let next_var = ref first_aux and refinements = ref 0 in
  fun sigma_y ->
    incr refinements;
    let current = !refinements in
    let aux a =
      if abs_var.(a) < 0 || (dep.(a) && stamp.(a) <> current) then begin
        abs_var.(a) <- !next_var;
        stamp.(a) <- current;
        incr next_var
      end;
      abs_var.(a)
    in
    (* [None] when a true Y-literal satisfies the clause. *)
    let rec instantiate acc = function
      | [] -> Some acc
      | Lit.Pos x :: rest when x >= num_vars ->
        instantiate (Lit.Pos (aux (x - num_vars)) :: acc) rest
      | Lit.Neg x :: rest when x >= num_vars ->
        instantiate (Lit.Neg (aux (x - num_vars)) :: acc) rest
      | l :: rest ->
        if not is_y.(Lit.atom l) then instantiate (l :: acc) rest
        else if Lit.holds sigma_y l then None
        else instantiate acc rest
    in
    let add c =
      match instantiate [] c with
      | Some c -> Solver.add_clause abstraction c
      | None -> ()
    in
    (* Y-free clauses are the same under every sigma_Y: add them once. *)
    if current = 1 then List.iter add (List.concat groups)
    else List.iter add y_dependent

let rec mentions_y is_y = function
  | Formula.True | Formula.False -> false
  | Formula.Atom x -> is_y.(x)
  | Formula.Not g -> mentions_y is_y g
  | Formula.And (a, b) | Formula.Or (a, b) | Formula.Imp (a, b)
  | Formula.Iff (a, b) ->
    mentions_y is_y a || mentions_y is_y b

(* A solver holding the clauses that assert [f], auxiliaries from
   [num_vars] up, and the first variable they leave free. *)
let asserting ~num_vars f =
  let groups, next_var = Cnf.assert_clauses ~next_var:num_vars f in
  let solver = Solver.create ~num_vars:next_var () in
  List.iter (List.iter (Solver.add_clause solver)) groups;
  (solver, next_var)

(* The loop; [(answer, rounds)]. *)
let solve ~max_rounds ~num_vars ~xs ~ys matrix =
  let is_y = Array.make num_vars false in
  List.iter (fun y -> is_y.(y) <- true) ys;
  let phi_y, phi_x = List.partition (mentions_y is_y) (Cnf.top_conjuncts matrix) in
  let abstraction, first_aux = asserting ~num_vars (Formula.big_and phi_x) in
  let universal = phi_y <> [] and phi_y = Formula.big_and phi_y in
  let check_solver =
    lazy (fst (asserting ~num_vars (Formula.not_ phi_y)))
  in
  let refine = lazy (refiner ~num_vars ~first_aux ~is_y abstraction phi_y) in
  let compute_step () =
    match Solver.solve abstraction with
    | Solver.Unsat -> `Done false (* no candidate X-assignment survives *)
    | Solver.Sat when not universal ->
      `Done true (* phi is phi_X, and sigma_X satisfies it *)
    | Solver.Sat ->
      let sigma_x = Solver.model ~universe:num_vars abstraction in
      let pin =
        List.map
          (fun x -> if Interp.mem sigma_x x then Lit.Pos x else Lit.Neg x)
          xs
      in
      let check_solver = Lazy.force check_solver in
      (match Solver.solve ~assumptions:pin check_solver with
      | Solver.Unsat -> `Done true (* forall Y phi holds under sigma_x *)
      | Solver.Sat ->
        (* Refine: phi_Y must hold for this Y-counterexample. *)
        Lazy.force refine (Solver.model ~universe:num_vars check_solver);
        `Refine)
  in
  let rec loop round =
    if round >= max_rounds then raise Too_many_rounds;
    (* Round boundary: one cooperative budget/cancellation tick per CEGAR
       refinement round, so a runaway abstraction loop degrades instead of
       spinning. *)
    Ddb_budget.Budget.check ();
    let traced = Ddb_obs.Trace.enabled () in
    if traced then
      Ddb_obs.Trace.begin_args n_round
        [ (n_round_attr, Ddb_obs.Trace.Int round) ];
    let step =
      try compute_step ()
      with e ->
        (* Keep the round span balanced if a solve raises mid-round
           (e.g. Out_of_budget unwinding from the SAT conflict loop). *)
        if traced then Ddb_obs.Trace.end_ n_round;
        raise e
    in
    (* Rounds are siblings under the qbf.cegar span, so end before
       recursing rather than nesting round k+1 inside round k. *)
    if traced then
      Ddb_obs.Trace.end_args n_round
        [ (n_refined, Ddb_obs.Trace.Bool (step = `Refine)) ];
    match step with
    | `Done r -> (r, round + 1)
    | `Refine -> loop (round + 1)
  in
  loop 0

let valid_exists_forall ?(max_rounds = max_int) ~num_vars ~xs ~ys matrix =
  Stats.bump_sigma2 ();
  if not (Ddb_obs.Trace.enabled ()) then
    fst (solve ~max_rounds ~num_vars ~xs ~ys matrix)
  else begin
    let open Ddb_obs.Trace in
    (* The span opens before phi_X is encoded, so the call's fixed cost is
       charged to it, not to its caller. *)
    begin_args n_cegar [ (n_num_vars, Int num_vars) ];
    let finished = ref false in
    Fun.protect
      ~finally:(fun () -> if not !finished then end_ n_cegar)
      (fun () ->
        let r, rounds = solve ~max_rounds ~num_vars ~xs ~ys matrix in
        finished := true;
        end_args n_cegar [ (n_valid, Bool r); (n_rounds, Int rounds) ];
        r)
  end

let valid ?max_rounds t =
  match t.Qbf.prefix with
  | Qbf.Exists_forall ->
    valid_exists_forall ?max_rounds ~num_vars:t.Qbf.num_vars ~xs:t.Qbf.block1
      ~ys:t.Qbf.block2 t.Qbf.matrix
  | Qbf.Forall_exists ->
    not
      (valid_exists_forall ?max_rounds ~num_vars:t.Qbf.num_vars
         ~xs:t.Qbf.block1 ~ys:t.Qbf.block2
         (Formula.not_ t.Qbf.matrix))
