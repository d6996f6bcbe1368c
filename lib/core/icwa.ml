open Ddb_logic
open Ddb_sat
open Ddb_db

(* ICWA — the Iterated CWA of Gelfond, Przymusinska & Przymusinski for
   stratified databases: iterated application of ECWA along the strata,
   introduced to capture the perfect-model semantics under stratified
   negation.

   We implement the paper's model-theoretic characterization: with
   stratification S = <S1,...,Sr>, negative body literals moved into heads
   (DB' = shift(DB), a positive database) and P_i = P ∩ S_i,

     ICWA_{P1 > ... > Pr; Z}(DB)
        =  ⋂_{i=1..r}  ECWA_{P_i ; P_{i+1} ∪ ... ∪ P_r ∪ Z}(DB')
        =  ⋂_{i=1..r}  MM(DB'; P_i; P_{i+1} ∪ ... ∪ P_r ∪ Z).

   Stratifiability guarantees consistency for any partition (the paper's
   O(1) existence cell — given a stratification, the answer is "yes"
   without touching the clauses). *)

type instance = {
  shifted : Db.t; (* DB' = negation moved into heads *)
  theory : Minimal.theory; (* DB' compiled: every solver below copies it *)
  parts : Partition.t list; (* one ⟨P_i;Q_i;Z_i⟩ per stratum *)
}

let prepare db part =
  match Stratify.compute db with
  | None -> None
  | Some strat ->
    let n = Db.num_vars db in
    let shifted =
      Db.with_universe
        (Db.make ~vocab:(Db.vocab db)
           (List.map Clause.shift_negation (Db.clauses db)))
        n
    in
    let strata = Stratify.strata strat in
    let p = Partition.p part and z = Partition.z part in
    let parts =
      List.mapi
        (fun i s_i ->
          let p_i = Interp.inter p s_i in
          let later =
            List.filteri (fun j _ -> j > i) strata
            |> List.fold_left
                 (fun acc s -> Interp.union acc (Interp.inter p s))
                 (Interp.empty n)
          in
          let z_i = Interp.union later z in
          let q_i = Interp.diff (Interp.full n) (Interp.union p_i z_i) in
          Partition.make ~p:p_i ~q:q_i ~z:z_i)
        strata
    in
    Some { shifted; theory = Db.theory shifted; parts }

let is_icwa_model inst m =
  Db.satisfied_by m inst.shifted
  && List.for_all
       (fun part_i -> Minimal.is_minimal inst.theory part_i m)
       inst.parts

(* Witness search: find M in the ECWA intersection satisfying [query];
   when a candidate fails stratum i's minimality, its (P_i;Z_i) cone is
   blocked (sound: the whole cone is non-minimal for stratum i). *)
let find_icwa_model_such_that ?query inst =
  let n = Db.num_vars inst.shifted in
  let candidate = Minimal.solver_of inst.theory in
  List.iter (Solver.add_clause candidate) (Models.guard ~universe:n query);
  let checkers =
    List.map (fun part_i -> (part_i, Minimal.solver_of inst.theory)) inst.parts
  in
  let rec loop () =
    match Solver.solve candidate with
    | Solver.Unsat -> None
    | Solver.Sat ->
      let m = Solver.model ~universe:n candidate in
      let failing =
        List.find_opt
          (fun (part_i, solver) -> not (Minimal.is_minimal_with solver part_i m))
          checkers
      in
      match failing with
      | None -> Some m
      | Some (part_i, _) ->
        Solver.add_clause candidate (Minimal.cone_blocking part_i m);
        loop ()
  in
  loop ()

let witness db part f =
  if Formula.max_atom f >= Partition.universe_size part then
    invalid_arg "Icwa: query atom outside the partition";
  match prepare db part with
  | None -> invalid_arg "Icwa: database is not stratified"
  | Some inst -> find_icwa_model_such_that ~query:f inst

let infer_formula db part f =
  Option.is_none (witness db part (Formula.not_ f))

let infer_literal db part l = infer_formula db part (Formula.of_lit l)

(* The paper: "Stratifiability asserts consistency; if DB is stratified by
   S, then ICWA is consistent for any ⟨P;Q;Z⟩" — an O(1) answer given the
   stratification, for databases without integrity clauses.  An integrity
   clause can exclude every ICWA model (a. plus :- a.), so with integrity
   clauses existence is a search for an ICWA model at the record's
   partition. *)
let has_model_at db part =
  match prepare db part with
  | None -> false
  | Some inst -> Option.is_some (find_icwa_model_such_that inst)

let reference_models db part =
  match prepare db part with
  | None -> invalid_arg "Icwa.reference_models: database is not stratified"
  | Some inst ->
    List.filter (fun m -> is_icwa_model inst m)
      (Models.brute_models inst.shifted)

(* Asked at [part], by default ⟨V;∅;∅⟩; answers memoized per semantics
   and partition. *)
let semantics ?part () =
  let has_model_at =
    Semantics.at_total_db ?part (fun () -> has_model_at) ()
  in
  Semantics.via_engine ?part
    (Semantics.parametric ?part ~name:"icwa"
       ~long_name:"Iterated CWA (Gelfond, Przymusinska & Przymusinski)"
       ~applicable:Stratify.is_stratified
       ~has_model:(fun _ db ->
         if Db.has_integrity db then has_model_at db
         else Stratify.is_stratified db)
       ~infer_formula:(fun _ db part f -> infer_formula db part f)
       ~infer_literal:(fun _ db part l -> infer_literal db part l)
       ~witness:(fun _ db part f -> witness db part f)
       reference_models)
