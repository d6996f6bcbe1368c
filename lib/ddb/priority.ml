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

(* Bitsets over the atoms, mutable and local to [compute]. *)
let word_bits = Sys.int_size

let bits_make n = Array.make ((n + word_bits - 1) / word_bits) 0
let bits_mem b x = b.(x / word_bits) land (1 lsl (x mod word_bits)) <> 0

let bits_add b x =
  b.(x / word_bits) <- b.(x / word_bits) lor (1 lsl (x mod word_bits))

let bits_union_into dst src =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- dst.(i) lor src.(i)
  done

let compute db =
  let n = Db.num_vars db in
  (* reach.(x): atoms reachable from x over weak and strict edges, x
     included; strict.(x): the heads of x's strict edges, y with
     priority(y) > priority(x). *)
  let reach = Array.init n (fun x -> let b = bits_make n in bits_add b x; b) in
  let strict = Array.init n (fun _ -> bits_make n) in
  List.iter
    (fun c ->
      let head = Clause.head c in
      List.iter
        (fun a ->
          List.iter (bits_add reach.(a)) (Clause.body_pos c);
          List.iter (bits_add reach.(a)) head;
          List.iter
            (fun c' ->
              bits_add reach.(a) c';
              bits_add strict.(a) c')
            (Clause.body_neg c))
        head)
    (Db.clauses db);
  (* Warshall: after pass k, reach.(i) closes over paths through 0..k. *)
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if i <> k && bits_mem reach.(i) k then bits_union_into reach.(i) reach.(k)
    done
  done;
  (* x < y iff x reaches some b, b has a strict edge to c, and c reaches y:
     lt(x) is the union of reach(c) over c in the strict image of
     reach(x). *)
  let lt =
    Array.init (max n 1) (fun x ->
        if x >= n then Interp.empty (max n 1)
        else begin
          let image = bits_make n and out = bits_make n in
          for b = 0 to n - 1 do
            if bits_mem reach.(x) b then bits_union_into image strict.(b)
          done;
          for c = 0 to n - 1 do
            if bits_mem image c then bits_union_into out reach.(c)
          done;
          Interp.of_pred n (bits_mem out)
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

(* ¬(N ≺ M) as a DNF over M.  N ≺ M fails iff M = N or some x ∈ N∖M has
   no y ∈ M∖N above it, i.e. x ∉ M and no atom of lt(x)∖N is in M: one
   term for M = N, and per x ∈ N the term ¬x ∧ ⋀{¬y : y ∈ lt(x)∖N}. *)
let not_preferable t n =
  let equal =
    List.init t.num_vars (fun y ->
        if Interp.mem n y then Lit.Pos y else Lit.Neg y)
  in
  equal
  :: List.map
       (fun x ->
         Lit.Neg x
         :: Interp.fold
              (fun y acc -> if Interp.mem n y then acc else Lit.Neg y :: acc)
              t.lt.(x) [])
       (Interp.to_list n)

(* The perfectness test on minimal models of [db]: the priority is
   computed once, and each test is one [find_preferable] call on
   [solver].  A model N preferable to m is preferable to no perfect
   model, so a failed test refutes every M with N ≺ M. *)
let perfectness ?solver db =
  let t = compute db in
  let solver = match solver with Some s -> s | None -> Db.solver db in
  fun m ->
    match find_preferable ~solver db t m with
    | None -> Minimal.Pass
    | Some n -> Minimal.Refute (not_preferable t n)

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
let perfect_models db =
  let check = perfectness db in
  List.filter (fun m -> check m = Minimal.Pass) (Models.minimal_models db)
