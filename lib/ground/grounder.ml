open Ddb_logic

(* Herbrand grounding of a safe Datalog program into the propositional
   core.

   Every rule is instantiated over the program's constant universe; the
   resulting ground atoms "p(c1,...,ck)" are interned into a vocabulary and
   the rule becomes an ordinary propositional clause.  Two refinements keep
   naive grounding usable:

     - arity checking and safety checking up front (clear errors beat
       silent blow-ups);
     - substitutions are enumerated by *matching the positive body
       left-to-right against candidate instantiations*, pruning bindings as
       soon as a positive atom cannot be instantiated in any way that was
       ever derivable: we first compute an over-approximation of the
       derivable ground atoms (the predicate-level least fixpoint ignoring
       negation and treating disjunction as conjunction of possibilities),
       then only instantiate bodies inside it.  For Datalog this
       over-approximation is the classic "possible facts" closure and keeps
       the ground program close to its reachable part. *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type t = {
  db : Ddb_db.Db.t;
  vocab : Vocab.t;
  constants : string list;
}

let check_arities rules =
  let arities = Hashtbl.create 16 in
  List.iter
    (fun (r : Ast.rule) ->
      List.iter
        (fun (a : Ast.atom) ->
          let arity = List.length a.Ast.args in
          match Hashtbl.find_opt arities a.Ast.pred with
          | None -> Hashtbl.add arities a.Ast.pred arity
          | Some k when k = arity -> ()
          | Some k ->
            error "predicate %s used with arities %d and %d" a.Ast.pred k arity)
        (r.Ast.head @ r.Ast.pos @ r.Ast.neg))
    rules

let check_safety rules =
  List.iter
    (fun r ->
      if not (Ast.is_safe r) then
        error "unsafe rule (a variable outside the positive body): %a"
          Ast.pp_rule r)
    rules

let ground_atom_name (a : Ast.atom) subst =
  let term_str = function
    | Ast.Const c -> c
    | Ast.Var v -> (
      match List.assoc_opt v subst with
      | Some c -> c
      | None -> error "unbound variable %s" v)
  in
  Ast.name a.Ast.pred (List.map term_str a.Ast.args)

(* Possible-facts closure at the predicate-instance level: which ground
   atoms can ever appear in a head, ignoring negation. *)
let possible_facts rules constants =
  let known : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let known_atom a subst = Hashtbl.mem known (ground_atom_name a subst) in
  let add a subst =
    let name = ground_atom_name a subst in
    if Hashtbl.mem known name then false
    else begin
      Hashtbl.add known name ();
      true
    end
  in
  (* enumerate substitutions matching the positive body inside [known] *)
  let rec match_body body subst k =
    match body with
    | [] -> k subst
    | (a : Ast.atom) :: rest ->
      (* enumerate bindings of a's unbound variables *)
      let rec bind args subst k =
        match args with
        | [] -> if known_atom a subst then k subst
        | Ast.Const _ :: more -> bind more subst k
        | Ast.Var v :: more ->
          if List.mem_assoc v subst then bind more subst k
          else
            List.iter
              (fun c -> bind more ((v, c) :: subst) k)
              constants
      in
      bind a.Ast.args subst (fun subst -> match_body rest subst k)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (r : Ast.rule) ->
        match_body r.Ast.pos [] (fun subst ->
            List.iter
              (fun h -> if add h subst then changed := true)
              r.Ast.head))
      rules
  done;
  known

let ground ?(max_ground_rules = 1_000_000) rules =
  check_arities rules;
  check_safety rules;
  let constants =
    match Ast.constants_of_program rules with
    | [] -> [ "unit" ] (* purely propositional programs need no universe *)
    | cs -> cs
  in
  let possible = possible_facts rules constants in
  let vocab = Vocab.create ~capacity:(Hashtbl.length possible) () in
  let clauses = ref [] in
  let count = ref 0 in
  let intern a subst = Vocab.intern vocab (ground_atom_name a subst) in
  let rec match_body body subst k =
    match body with
    | [] -> k subst
    | (a : Ast.atom) :: rest ->
      let rec bind args subst k =
        match args with
        | [] ->
          if Hashtbl.mem possible (ground_atom_name a subst) then k subst
        | Ast.Const _ :: more -> bind more subst k
        | Ast.Var v :: more ->
          if List.mem_assoc v subst then bind more subst k
          else List.iter (fun c -> bind more ((v, c) :: subst) k) constants
      in
      bind a.Ast.args subst (fun subst -> match_body rest subst k)
  in
  List.iter
    (fun (r : Ast.rule) ->
      match_body r.Ast.pos [] (fun subst ->
          incr count;
          if !count > max_ground_rules then
            error "grounding exceeds %d rules" max_ground_rules;
          (* negative atoms outside the possible set are simply false:
             drop the literal.  positive body atoms are inside by
             construction; head atoms are interned unconditionally. *)
          let neg =
            List.filter_map
              (fun a ->
                if Hashtbl.mem possible (ground_atom_name a subst) then
                  Some (intern a subst)
                else None)
              r.Ast.neg
          in
          let clause =
            Clause.make
              ~head:(List.map (fun a -> intern a subst) r.Ast.head)
              ~pos:(List.map (fun a -> intern a subst) r.Ast.pos)
              ~neg
          in
          clauses := clause :: !clauses))
    rules;
  {
    db = Ddb_db.Db.make ~vocab (List.rev !clauses);
    vocab;
    constants;
  }

let of_string ?max_ground_rules src =
  ground ?max_ground_rules (Parse.datalog src)

let of_file ?max_ground_rules path =
  ground ?max_ground_rules (Parse.datalog_of_file path)

(* Query helpers: look up a ground atom's propositional id. *)
let atom_id t pred args = Vocab.find_opt t.vocab (Ast.name pred args)

let holds_in t interp pred args =
  match atom_id t pred args with
  | Some id -> Interp.mem interp id
  | None -> false
