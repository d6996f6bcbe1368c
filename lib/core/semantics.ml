open Ddb_logic
open Ddb_db

(* The uniform face of a disjunctive database semantics, as studied by the
   paper: a (possibly empty) set of intended models inducing the three
   decision problems — literal inference, formula inference, model
   existence — and the search behind them.

   Every upper bound in the paper is "guess a model, check it".  The
   guessed model is a witness for brave inference and a countermodel for
   cautious inference, so each semantics has one search primitive,
   [witness db f]: an intended model satisfying F, or [None].  Cautious
   inference is [witness db ¬F = None] (PDSM keeps its own 3-valued
   inference: the duality fails at value ½).

   Every semantics module provides two engines:
     - the *oracle engine* (the default): realizes the paper's upper-bound
       algorithm by SAT / minimality-oracle calls;
     - the *reference engine*: explicit model enumeration over 2^V (or 3^V),
       used as ground truth on small universes by the tests and the
       engine-ablation bench.

   A semantics is a constant [spec]: which oracle engine answers its
   questions is the first argument of every procedure, not part of the
   semantics.  [bind eng] fixes it, giving the record callers ask. *)

type model = Two_valued of Interp.t | Three_valued of Three_valued.t

module Engine = Ddb_engine.Engine

(* A semantics as a constant: every decision procedure takes the oracle
   engine that answers its questions first.  Declared before [t] so that
   an unannotated field access means [t]'s field. *)
type spec = {
  name : string;
  long_name : string;
  applicable : Db.t -> bool;
  has_model : Engine.t -> Db.t -> bool;
  infer_formula : Engine.t -> Db.t -> Formula.t -> bool;
  infer_literal : Engine.t -> Db.t -> Lit.t -> bool;
  witness : Engine.t -> Db.t -> Formula.t -> model option;
  reference_models : Db.t -> Interp.t list;
}

type t = {
  name : string;
  long_name : string;
  (* Which databases the semantics is defined for (e.g. DDR needs a DDDB,
     ICWA a stratified database). *)
  applicable : Db.t -> bool;
  has_model : Db.t -> bool;
  infer_formula : Db.t -> Formula.t -> bool;
  infer_literal : Db.t -> Lit.t -> bool;
  witness : Db.t -> Formula.t -> model option;
  reference_models : Db.t -> Interp.t list;
}

let bind eng (s : spec) : t =
  {
    name = s.name;
    long_name = s.long_name;
    applicable = s.applicable;
    has_model = s.has_model eng;
    infer_formula = s.infer_formula eng;
    infer_literal = s.infer_literal eng;
    witness = s.witness eng;
    reference_models = s.reference_models;
  }

let two_valued w = Option.map (fun m -> Two_valued m) w

(* Pad the database universe so that query atoms beyond it are legal. *)
let for_query db f =
  Db.with_universe db (max (Db.num_vars db) (Formula.max_atom f + 1))

(* A database asked at a partition must fit in its universe: the
   partition places every atom, and an atom it does not place would be
   neither minimized, fixed nor varied. *)
let fits part =
  let n = Partition.universe_size part in
  fun db ->
    let m = Db.num_vars db in
    if m > n then
      invalid_arg
        (Printf.sprintf
           "Semantics: a database over %d atoms asked at a partition over %d"
           m n)

(* How a record asks a partition-parametric procedure.  The branch is
   taken once, when the record is made. *)
let at_total ?part formula_of k =
  match part with
  | None ->
    fun e db q ->
      let db = for_query db (formula_of q) in
      k e db (Partition.minimize_all (Db.num_vars db)) q
  | Some part ->
    let n = Partition.universe_size part and fits = fits part in
    fun e db q ->
      fits db;
      k e (Db.with_universe db n) part q

let at_total_db ?part k =
  let k = at_total ?part (fun () -> Formula.True) (fun e db p () -> k e db p) in
  fun e db -> k e db ()

let parametric ?part ~name ~long_name ~applicable ~has_model ~infer_formula
    ~infer_literal ~witness reference_models : spec =
  let witness = at_total ?part Fun.id witness in
  let reference_models = at_total_db ?part (fun () -> reference_models) () in
  {
    name;
    long_name;
    applicable;
    has_model =
      (match part with
      | None -> has_model
      | Some part ->
        let fits = fits part in
        fun eng db ->
          fits db;
          has_model eng db);
    infer_formula = at_total ?part Fun.id infer_formula;
    infer_literal = at_total ?part Formula.of_lit infer_literal;
    witness = (fun eng db f -> two_valued (witness eng db f));
    reference_models;
  }

(* Memoize a semantics' answers in the oracle engine without decomposing
   its decision procedure: each decision problem's answer is cached under
   the database's canonical key and the record's partition, if any (an
   uncached engine always runs the procedure).  Attribution is not done
   here: the registry's wrapper ({!Fastpath.wrap}) runs every field in the
   record's scope.  The closed-world family calls the engine's oracle ops
   directly instead. *)
let via_engine ?part (s : spec) : spec =
  let op_exists = Engine.op (s.name ^ "/exists")
  and op_formula = Engine.op (s.name ^ "/formula")
  and op_literal = Engine.op (s.name ^ "/literal") in
  {
    s with
    has_model =
      (fun eng db ->
        Engine.cached_bool ?part eng ~op:op_exists db (fun () ->
            s.has_model eng db));
    infer_formula =
      (fun eng db f ->
        Engine.cached_bool ?part eng ~op:op_formula ~formula:f db (fun () ->
            s.infer_formula eng db f));
    infer_literal =
      (fun eng db l ->
        Engine.cached_bool ?part eng ~op:op_literal ~formula:(Formula.of_lit l)
          db (fun () -> s.infer_literal eng db l));
  }

(* The record of a semantics whose intended models are the ⊆-minimal
   models passing [check] (PERF, DSM): the paper's Σ₂ᵖ "guess a minimal
   model, check it".  [check theory db] screens each minimal model the
   search finds on [theory], DB compiled, and may refute it: PERF's check
   returns ¬(N ≺ M) for the preferable model N it found, which the search
   learns, so one failed check removes every candidate N also defeats.
   PERF's check runs on a copy of that theory's image; DSM's builds the
   theory of each candidate's reduct ([Dsm.is_stable]), a solver per
   check.  Its answers are memoized by [via_engine]; on top of that, on a
   cached engine:
     - literals: ¬x holds iff x is true in no intended model, and x iff x
       is false in none.  A sweep reads both from the harvested
       consequences ([Engine.consequences], memoized under the op
       [<name>/intended]); a theory's first question, an uncached engine
       and an atom beyond the universe run the search;
     - existence: over n ≥ 1 atoms every intended model makes some
       literal true, so one exists iff brave_true ∪ brave_false ≠ ∅.  Only
       a harvest some literal question already built is read
       ([Engine.harvested]).  Otherwise it is true on positive DDBs
       (every minimal model passes: perfect and stable models are the
       minimal ones there), and the search answers the rest. *)
let screened ~name ~long_name ~check reference_models =
  let search ?query db =
    let n = Db.num_vars db and theory = Db.theory db in
    Ddb_sat.Minimal.find_minimal_such_that
      ~extra:(Models.guard ~universe:n query)
      ~check:(check theory db) theory (Partition.minimize_all n)
  in
  let witness db f = search ~query:f (for_query db f) in
  let infer_formula db f = Option.is_none (witness db (Formula.not_ f)) in
  let intended = Engine.op (name ^ "/intended") in
  via_engine
    {
      name;
      long_name;
      applicable = (fun _ -> true);
      has_model =
        (fun eng db ->
          match
            if Db.num_vars db > 0 then Engine.harvested eng ~op:intended db
            else None
          with
          | Some (brave_true, brave_false) ->
            not (Interp.is_empty brave_true && Interp.is_empty brave_false)
          | None -> Db.is_positive_ddb db || Option.is_some (search db));
      infer_formula = (fun _ db f -> infer_formula db f);
      infer_literal =
        (fun eng db l ->
          match
            if Lit.atom l < Db.num_vars db then
              Engine.consequences eng ~op:intended db (fun theory ->
                  check theory db)
            else None
          with
          | Some (brave_true, brave_false) -> (
            match l with
            | Lit.Pos x -> not (Interp.mem brave_false x)
            | Lit.Neg x -> not (Interp.mem brave_true x))
          | None -> infer_formula db (Formula.of_lit l));
      witness = (fun _ db f -> two_valued (witness db f));
      reference_models;
    }
