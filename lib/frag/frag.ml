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

let pp ppf t =
  match names t with
  | [] -> Fmt.string ppf "(none)"
  | tags -> Fmt.(list ~sep:sp string) ppf tags

let to_json t =
  Printf.sprintf
    {|{"positive":%b,"definite":%b,"normal":%b,"stratified":%b,"no_integrity":%b}|}
    t.positive t.definite t.normal t.stratified t.no_integrity

(* --- definite-Horn machinery --- *)

let definite_rules db =
  List.filter_map
    (fun c ->
      match Clause.head c with
      | [] -> None
      | [ h ] when Clause.body_neg c = [] ->
        Some (Horn.rule ~head:h ~body:(Clause.body_pos c))
      | _ -> invalid_arg "Frag.least_model: database is not definite")
    (Db.clauses db)

let least_model db =
  Horn.least_model ~num_vars:(Db.num_vars db) (definite_rules db)

let constraints db =
  List.filter_map
    (fun c ->
      if Clause.is_integrity c then begin
        if Clause.body_neg c <> [] then
          invalid_arg "Frag.constraints: integrity clause with negation";
        Some (Clause.body_pos c)
      end
      else None)
    (Db.clauses db)

let consistent_definite db = Horn.integrity_ok (least_model db) (constraints db)

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

(* --- linear relevancy-graph closure ---

   Same fixpoint as {!Tp.occurrence_closure} (mark every head of a clause
   whose body is fully marked), computed with per-clause counters and a
   work queue instead of re-scanning the rule list: each clause fires once
   and each (atom, watching clause) edge is walked once. *)

let derivable db =
  if Db.has_negation db then
    invalid_arg "Frag.derivable: the relevancy closure needs a DDDB";
  let n = Db.num_vars db in
  let rules =
    Array.of_list
      (List.filter_map
         (fun c ->
           match Clause.head c with
           | [] -> None
           | head -> Some (head, Clause.body_pos c))
         (Db.clauses db))
  in
  let remaining = Array.map (fun (_, body) -> List.length body) rules in
  let watchers = Array.make (max n 1) [] in
  Array.iteri
    (fun i (_, body) ->
      List.iter (fun b -> watchers.(b) <- i :: watchers.(b)) body)
    rules;
  let marked = Array.make (max n 1) false in
  let queue = Queue.create () in
  let mark x =
    if x < n && not marked.(x) then begin
      marked.(x) <- true;
      Queue.add x queue
    end
  in
  Array.iteri
    (fun i (head, _) -> if remaining.(i) = 0 then List.iter mark head)
    rules;
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    List.iter
      (fun i ->
        remaining.(i) <- remaining.(i) - 1;
        if remaining.(i) = 0 then List.iter mark (fst rules.(i)))
      watchers.(x)
  done;
  Interp.of_pred n (fun x -> marked.(x))

(* --- per-theory bundle --- *)

type info = {
  frag : t;
  least : Interp.t Lazy.t;
  consistent : bool Lazy.t;
  perfect : Interp.t Lazy.t;
  derivable : Interp.t Lazy.t;
}

let info db =
  let frag = classify db in
  {
    frag;
    least = lazy (least_model db);
    consistent = lazy (consistent_definite db);
    perfect = lazy (iterated_model db);
    derivable = lazy (derivable db);
  }
