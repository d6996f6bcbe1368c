open Ddb_logic
open Ddb_sat
open Ddb_db

(* Syntactic fragment classification (Table 1/2 fast-path gates) and the
   dedicated polynomial algorithms the dispatch layer routes to.

   Fragment lattice used by the dispatcher:
     definite ⊆ positive ∩ normal,  positive ⊆ stratified,
   so a definite database is also covered by the stratified-normal gate
   (both compute the same unique model — the least model). *)

type t = {
  positive : bool;
  definite : bool;
  normal : bool;
  stratified : bool;
  no_integrity : bool;
}

let classify db =
  let clauses = Db.clauses db in
  let positive = not (Db.has_negation db) in
  let no_integrity = not (Db.has_integrity db) in
  let normal =
    List.for_all
      (fun c -> match Clause.head c with [] | [ _ ] -> true | _ -> false)
      clauses
  in
  let definite =
    positive
    && List.for_all
         (fun c ->
           Clause.is_integrity c
           || match Clause.head c with [ _ ] -> true | _ -> false)
         clauses
  in
  {
    positive;
    definite;
    normal;
    (* positive databases are trivially stratified: skip the Bellman–Ford *)
    stratified = positive || Stratify.is_stratified db;
    no_integrity;
  }

let names t =
  List.filter_map
    (fun (flag, tag) -> if flag then Some tag else None)
    [
      (t.positive, "positive");
      (t.definite, "definite-horn");
      (t.normal, "normal");
      (t.stratified, "stratified");
      (t.no_integrity, "no-integrity");
    ]

(* --- iterated least model (Apt–Blair–Walker) ---

   Strata in priority order; stratum i's normal clauses reduce against the
   accumulated model (their negative atoms live strictly lower, so their
   values are final) and the surviving definite rules plus the accumulated
   atoms-as-facts feed one least-model computation.  For a stratified
   normal database without integrity clauses the result is the unique
   perfect model (= the unique stable model). *)

let iterated_model db =
  match Stratify.compute db with
  | None -> invalid_arg "Frag.iterated_model: database is not stratified"
  | Some strat ->
    let n = Db.num_vars db in
    let m = ref (Interp.empty n) in
    List.iter
      (fun stratum_clauses ->
        let facts =
          Interp.fold (fun x acc -> Horn.rule ~head:x ~body:[] :: acc) !m []
        in
        let rules =
          List.filter_map
            (fun c ->
              match Clause.head c with
              | [ h ]
                when List.for_all
                       (fun x -> not (Interp.mem !m x))
                       (Clause.body_neg c) ->
                Some (Horn.rule ~head:h ~body:(Clause.body_pos c))
              | _ -> None)
            stratum_clauses
        in
        m := Horn.least_model ~num_vars:n (facts @ rules))
      (Stratify.split db strat);
    !m

(* --- per-theory bundle --- *)

type info = {
  frag : t;
  closure : Interp.t Lazy.t;
  consistent : bool Lazy.t;
  perfect : Interp.t Lazy.t;
}

(* On a definite database the split program is the definite rules, so the
   relevancy closure is also the least model, and the consistency check
   reads it instead of computing it again. *)
let info db =
  let closure = lazy (Tp.occurrence_closure db) in
  {
    frag = classify db;
    closure;
    consistent =
      lazy
        (Horn.integrity_ok (Lazy.force closure) (Possible.integrity_bodies db));
    perfect = lazy (iterated_model db);
  }
