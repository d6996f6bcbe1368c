open Ddb_logic
open Ddb_sat

(* Possible models (Sakama's PMS, equivalent to Chan's Possible Worlds
   Semantics) for DDDBs.

   A *split* of DB replaces each non-integrity clause  H <- B  by the
   definite clauses  { a <- B : a ∈ S }  for some non-empty S ⊆ H; integrity
   clauses are kept.  A possible model is a minimal model of some split,
   i.e. the least model of the split's definite part, provided it satisfies
   the integrity clauses.

   Polynomial model check.  M is a possible model of DB iff
       M |= DB   and   M = lfp(P_M),
   where P_M = { a <- B : (H <- B) ∈ DB, a ∈ H ∩ M }.
   Proof.  (⇐) Build a split: for clauses with H ∩ M ≠ ∅ choose S = H ∩ M;
   for the rest choose any singleton.  Every derivation in that split from
   atoms of M stays inside P_M's derivations (a clause of the second kind
   can never fire inside M: firing would need B ⊆ lfp ⊆ M and would put its
   head outside M... but then lfp ⊄ M, contradiction with lfp(P_M) = M and a
   simple induction on derivation stages, since at every stage the derived
   atoms are exactly those of lfp(P_M) ⊆ M, where all bodies B ⊆ M with
   H ∩ M = ∅ are excluded by M |= DB).  Hence the split's least model is
   lfp(P_M) = M, and M |= integrity since M |= DB.
   (⇒) If M is the least model of split S, every split rule used lies in
   P_M (its head is in M), so M ⊆ lfp(P_M); conversely P_M's rules all have
   heads in M and only fire on bodies inside M, so lfp(P_M) ⊆ M. ∎ *)

let check_dddb db =
  if Db.has_negation db then
    invalid_arg "Possible: possible models are defined for DDDBs (no negation)"

let integrity_bodies db =
  List.filter_map
    (fun c ->
      if Clause.is_integrity c then Some (Clause.body_pos c) else None)
    (Db.clauses db)

(* P_M: the definite program keeping only head atoms inside m. *)
let projected_program db m =
  List.concat_map
    (fun c ->
      List.filter_map
        (fun a ->
          if Interp.mem m a then
            Some (Horn.rule ~head:a ~body:(Clause.body_pos c))
          else None)
        (Clause.head c))
    (Db.clauses db)

(* M = lfp(P_M), for a model M of DB. *)
let is_least_of_projection db m =
  Interp.equal m
    (Horn.least_model ~num_vars:(Db.num_vars db) (projected_program db m))

let is_possible_model db m =
  check_dddb db;
  Db.satisfied_by m db && is_least_of_projection db m

(* All possible models: enumerate models of DB, keep the possible ones.
   (Possible models are models; the polynomial check filters.) *)
let possible_models db =
  check_dddb db;
  List.filter (is_least_of_projection db) (Models.all_models db)

(* Reference implementation by explicit split enumeration (exponential in
   the number of disjunctive clauses; tests only). *)
let brute_possible_models db =
  check_dddb db;
  let n = Db.num_vars db in
  let integrity = integrity_bodies db in
  let proper =
    List.filter (fun c -> not (Clause.is_integrity c)) (Db.clauses db)
  in
  let rec non_empty_subsets = function
    | [] -> [ [] ]
    | x :: rest ->
      let subs = non_empty_subsets rest in
      subs @ List.map (fun s -> x :: s) subs
  in
  let selections_of c =
    List.filter (( <> ) []) (non_empty_subsets (Clause.head c))
  in
  let rec all_splits = function
    | [] -> [ [] ]
    | c :: rest ->
      let tails = all_splits rest in
      List.concat_map
        (fun sel ->
          List.map
            (fun tail ->
              List.map
                (fun a -> Horn.rule ~head:a ~body:(Clause.body_pos c))
                sel
              @ tail)
            tails)
        (selections_of c)
  in
  let models =
    List.filter_map
      (fun split ->
        let m = Horn.least_model ~num_vars:n split in
        if Horn.integrity_ok m integrity then Some m else None)
      (all_splits proper)
  in
  List.sort_uniq Interp.compare models
