open Ddb_logic
open Ddb_sat

(* The priority relation of the Perfect Model Semantics (Przymusinski).

   From each clause  a1 v ... v an <- b1 ^ ... ^ bk ^ ¬c1 ^ ... ^ ¬cm:
     (i)   ai <  cj   (negative premises have strictly higher priority),
     (ii)  ai <= bj   (positive premises have priority at least as high),
     (iii) ai ~  aj   (head atoms share their priority).
   The relations close transitively; x < y holds when some chain from x to y
   uses at least one strict step.

   A model N is *preferable* to a model M (N ≺ M) iff N ≠ M and for every
   x ∈ N∖M there is y ∈ M∖N with x < y.  M is perfect iff M is a model and
   no model is preferable to it.  Any proper submodel is vacuously
   preferable, so perfect models are minimal models. *)

type t = {
  num_vars : int;
  lt : Interp.t array; (* lt.(x) = { y : x < y } *)
}

let compute db =
  let n = Db.num_vars db in
  (* Weighted edges x -> y, weight 1 for strict (priority(y) > priority(x)
     reachable), 0 for non-strict. *)
  let weak = Array.make (max n 1) [] in
  let strict = Array.make (max n 1) [] in
  let add_weak x y = if x <> y then weak.(x) <- y :: weak.(x) in
  let add_strict x y = strict.(x) <- y :: strict.(x) in
  List.iter
    (fun c ->
      let head = Clause.head c in
      List.iter
        (fun a ->
          List.iter (fun b -> add_weak a b) (Clause.body_pos c);
          List.iter (fun c' -> add_strict a c') (Clause.body_neg c);
          List.iter
            (fun a' ->
              add_weak a a';
              add_weak a' a)
            head)
        head)
    (Db.clauses db);
  (* For each x: BFS over states (node, strict-step-seen). *)
  let lt =
    Array.init (max n 1) (fun x ->
        if x >= n then Interp.empty (max n 1)
        else begin
          let visited = Array.make (2 * n) false in
          let queue = Queue.create () in
          let push node s =
            let idx = (2 * node) + if s then 1 else 0 in
            if not visited.(idx) then begin
              visited.(idx) <- true;
              Queue.add (node, s) queue
            end
          in
          push x false;
          while not (Queue.is_empty queue) do
            let node, s = Queue.pop queue in
            List.iter (fun y -> push y s) weak.(node);
            List.iter (fun y -> push y true) strict.(node)
          done;
          Interp.of_pred n (fun y -> visited.((2 * y) + 1))
        end)
  in
  { num_vars = n; lt }

let lt t x y = Interp.mem t.lt.(x) y

(* Is some model of [db] preferable to [m]?  One SAT call: variables n_x
   describe the candidate N; constraints are
     N |= DB,   N ≠ M,   and for x ∉ M:  n_x -> ∨ { ¬n_y : y ∈ M, x < y }. *)
let find_preferable ?solver db t m =
  let n = Db.num_vars db in
  let solver =
    match solver with Some s -> s | None -> Db.solver db
  in
  let sel = Solver.new_var solver in
  let guard = Lit.Neg sel in
  (* N ≠ M *)
  Solver.add_clause solver
    (guard
    :: List.init n (fun x -> if Interp.mem m x then Lit.Neg x else Lit.Pos x));
  (* swap condition per atom outside M *)
  for x = 0 to n - 1 do
    if not (Interp.mem m x) then begin
      let dominators =
        Interp.fold
          (fun y acc -> if Interp.mem m y then Lit.Neg y :: acc else acc)
          t.lt.(x) []
      in
      Solver.add_clause solver ((guard :: Lit.Neg x :: dominators))
    end
  done;
  let outcome =
    match Solver.solve ~assumptions:[ Lit.Pos sel ] solver with
    | Solver.Unsat -> None
    | Solver.Sat -> Some (Solver.model ~universe:n solver)
  in
  Solver.add_clause solver [ Lit.Neg sel ];
  outcome

(* The perfectness test on minimal models of [db]: the priority is
   computed once, and each test is one [find_preferable] call on
   [solver]. *)
let perfectness ?solver db =
  let t = compute db in
  let solver = match solver with Some s -> s | None -> Db.solver db in
  fun m -> Option.is_none (find_preferable ~solver db t m)

let is_perfect ?priority db m =
  let t = match priority with Some t -> t | None -> compute db in
  Db.satisfied_by m db && Option.is_none (find_preferable db t m)

(* Reference check on explicit model lists (small universes). *)
let preferable t ~candidate ~over =
  (not (Interp.equal candidate over))
  && Interp.for_all
       (fun x ->
         Interp.exists (fun y -> lt t x y) (Interp.diff over candidate))
       (Interp.diff candidate over)

let brute_perfect_models db =
  let t = compute db in
  let models = Models.brute_models db in
  List.filter
    (fun m ->
      not
        (List.exists (fun n -> preferable t ~candidate:n ~over:m) models))
    models

(* All perfect models via minimal-model enumeration + the SAT check
   (perfect ⊆ minimal). *)
let perfect_models db = List.filter (perfectness db) (Models.minimal_models db)
