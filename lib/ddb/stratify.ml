open Ddb_logic

(* Stratification of disjunctive databases (Apt–Blair–Walker / van Gelder,
   generalized to disjunctive heads by Przymusinski).

   A database is stratified by S = <S1, ..., Sr> (a partition of the
   universe) when for every clause  H <- B+ ∧ ¬B-:
     - all atoms of H lie in the same stratum, say S_i;
     - every atom of B+ lies in a stratum S_j with j <= i;
     - every atom of B- lies in a stratum S_j with j < i.

   We compute the least such assignment by difference constraints:
     level(h) =  level(h')                 h, h' in the same head
     level(h) >= level(b)                  b in B+
     level(h) >= level(c) + 1              c in B-
   A solution exists iff no constraint cycle has positive weight; iterating
   to a fixpoint detects failure when some level exceeds the atom count
   (Bellman–Ford bound). *)

type t = {
  levels : int array; (* stratum index per atom, 0-based *)
  strata : Interp.t list; (* S1 ... Sr as atom sets *)
}

let num_strata t = List.length t.strata
let strata t = t.strata
let level t x = t.levels.(x)

type edge = { src : int; dst : int; weight : int } (* level(dst) >= level(src) + weight *)

let edges_of_db db =
  List.concat_map
    (fun c ->
      let head = Clause.head c in
      let head_eq =
        match head with
        | [] | [ _ ] -> []
        | h0 :: rest ->
          (* Same stratum: equality via two inequalities against h0. *)
          List.concat_map
            (fun h -> [ { src = h0; dst = h; weight = 0 };
                        { src = h; dst = h0; weight = 0 } ])
            rest
      in
      (* Integrity clauses constrain nothing: there is no head to place.  (A
         stratification only restricts where heads may live.) *)
      match head with
      | [] -> []
      | h0 :: _ ->
        head_eq
        @ List.map (fun b -> { src = b; dst = h0; weight = 0 }) (Clause.body_pos c)
        @ List.map (fun c' -> { src = c'; dst = h0; weight = 1 }) (Clause.body_neg c))
    db

let compute db =
  let clauses = Db.clauses db in
  let n = Db.num_vars db in
  let edges = edges_of_db clauses in
  let levels = Array.make (max n 1) 0 in
  let changed = ref true in
  let feasible = ref true in
  (* Bellman–Ford-style relaxation; any level exceeding n certifies a
     positive-weight cycle, i.e. recursion through negation. *)
  while !changed && !feasible do
    changed := false;
    List.iter
      (fun e ->
        let need = levels.(e.src) + e.weight in
        if levels.(e.dst) < need then begin
          levels.(e.dst) <- need;
          if need > n then feasible := false;
          changed := true
        end)
      edges
  done;
  if not !feasible then None
  else begin
    (* Normalize to consecutive strata 0..r-1. *)
    let used = List.sort_uniq Int.compare (Array.to_list (Array.sub levels 0 n)) in
    let rank = Hashtbl.create 8 in
    List.iteri (fun i l -> Hashtbl.replace rank l i) used;
    let levels = Array.init n (fun x -> Hashtbl.find rank levels.(x)) in
    let r = List.length used in
    let strata =
      List.init r (fun i -> Interp.of_pred n (fun x -> levels.(x) = i))
    in
    Some { levels; strata }
  end

let is_stratified db = Option.is_some (compute db)

(* Check that an explicitly given partition of atoms into strata satisfies
   the stratification conditions — used to validate hand-written strata in
   tests and the CLI. *)
let valid_stratification db strata =
  let n = Db.num_vars db in
  let level = Array.make (max n 1) (-1) in
  List.iteri
    (fun i s -> Interp.iter (fun x -> level.(x) <- i) s)
    strata;
  List.for_all (fun x -> level.(x) >= 0) (Db.atoms db)
  && List.for_all
       (fun c ->
         match Clause.head c with
         | [] -> true
         | h0 :: _ as head ->
           let lh = level.(h0) in
           List.for_all (fun h -> level.(h) = lh) head
           && List.for_all (fun b -> level.(b) <= lh) (Clause.body_pos c)
           && List.for_all (fun c' -> level.(c') < lh) (Clause.body_neg c))
       (Db.clauses db)

(* The clauses of stratum i: those whose heads live in S_i.  Integrity
   clauses are attached to the first stratum where their whole body is
   settled: positive atoms are defined at their own level, but a *negative*
   atom is only safe to test once its stratum is closed — one level later,
   mirroring the [weight = 1] edge of [edges_of_db].  (Using the negative
   atom's own level evaluated ¬x before S_{level(x)}'s clauses could still
   derive x.)  Clamped into range for negative atoms in the top stratum. *)
let split db t =
  let level_of_clause c =
    match Clause.head c with
    | h :: _ -> t.levels.(h)
    | [] ->
      let top = num_strata t - 1 in
      let pos =
        List.fold_left (fun acc x -> max acc t.levels.(x)) 0 (Clause.body_pos c)
      in
      List.fold_left
        (fun acc x -> max acc (min (t.levels.(x) + 1) top))
        pos
        (Clause.body_neg c)
  in
  List.init (num_strata t) (fun i ->
      List.filter (fun c -> level_of_clause c = i) (Db.clauses db))
