open Ddb_logic
open Ddb_sat

(* Counterexample-guided 2-QBF solver on top of the CDCL SAT solver.

   For exists-X forall-Y phi:
     - the check solver holds the clauses of not-phi, encoded once; each
       round pins X by assumptions and asks it for a counterexample sigma_Y;
     - the abstraction solver starts empty and, for every counterexample,
       receives phi's clauses instantiated under sigma_Y: a clause with a
       true Y-literal is dropped, false Y-literals are stripped, and the
       auxiliaries whose definitions read Y get fresh copies.  Clauses free
       of Y are the same under every sigma_Y and are added once, at the
       first refinement.  Neither formula is rebuilt or re-encoded;
     - each round proposes sigma_X from the abstraction; an UNSAT check
       certifies validity, an UNSAT abstraction refutes it.

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

(* The refinement step: encodes phi once and returns a function adding
   phi[Y := sigma_Y] to [abstraction] for a counterexample sigma_Y.

   One forward pass over the encoder's groups finds the Y-dependent
   clauses: a group reads only atoms and earlier auxiliaries besides the
   one it defines, so that auxiliary, unseen until its group, depends on Y
   iff the group reads Y.  The abstraction numbers auxiliaries on first
   use: Y-free ones once, Y-dependent ones afresh in every refinement
   ([stamp] holds the refinement that numbered them). *)
let refiner ~num_vars ~is_y abstraction matrix =
  let groups, next_aux = Cnf.assert_clauses ~next_var:num_vars matrix in
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
  let next_var = ref num_vars and refinements = ref 0 in
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

let valid_exists_forall ?(max_rounds = max_int) ~num_vars ~xs ~ys matrix =
  let is_y = Array.make num_vars false in
  List.iter (fun y -> is_y.(y) <- true) ys;
  let check_solver = Solver.create ~num_vars () in
  let neg_groups, check_vars =
    Cnf.assert_clauses ~next_var:num_vars (Formula.not_ matrix)
  in
  Solver.ensure_vars check_solver check_vars;
  List.iter (List.iter (Solver.add_clause check_solver)) neg_groups;
  (* The abstraction starts empty; phi is encoded at the first refinement. *)
  let abstraction = Solver.create ~num_vars () in
  let refine = lazy (refiner ~num_vars ~is_y abstraction matrix) in
  let compute_step _round =
    match Solver.solve abstraction with
    | Solver.Unsat -> `Done false (* no candidate X-assignment survives *)
    | Solver.Sat ->
      let sigma_x = Solver.model ~universe:num_vars abstraction in
      let pin =
        List.map
          (fun x -> if Interp.mem sigma_x x then Lit.Pos x else Lit.Neg x)
          xs
      in
      (match Solver.solve ~assumptions:pin check_solver with
      | Solver.Unsat -> `Done true (* forall Y phi holds under sigma_x *)
      | Solver.Sat ->
        (* Refine: phi must hold for this Y-counterexample. *)
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
      try compute_step round
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
  Stats.bump_sigma2 ();
  if not (Ddb_obs.Trace.enabled ()) then fst (loop 0)
  else begin
    let open Ddb_obs.Trace in
    begin_args n_cegar [ (n_num_vars, Int num_vars) ];
    let finished = ref false in
    Fun.protect
      ~finally:(fun () -> if not !finished then end_ n_cegar)
      (fun () ->
        let r, rounds = loop 0 in
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
